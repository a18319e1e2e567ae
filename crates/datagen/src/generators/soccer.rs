//! Soccer benchmark generator (200 000 × 10 in the paper; default 20 000 here).
//!
//! Each row is a player-season record. The player identity determines name,
//! birth year, birth place, country and position (`name → birthyear`,
//! `birthplace → country`); the club determines the league (`club → league`).
//! The full 200 000-row size is available behind an explicit row count, but
//! the default benchmark uses 20 000 rows to keep bench wall-clock reasonable
//! (`BenchmarkDataset::default_rows`).

use bclean_data::{Attribute, Dataset, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::vocab::{self, pick, CLUBS, EURO_CITIES, POSITIONS};

struct Player {
    name: String,
    birthyear: String,
    birthplace: String,
    country: String,
    position: String,
    height: String,
}

/// The Soccer schema (10 attributes).
pub fn schema() -> Schema {
    Schema::new(vec![
        Attribute::text("name"),
        Attribute::categorical("birthyear"),
        Attribute::categorical("birthplace"),
        Attribute::categorical("country"),
        Attribute::categorical("position"),
        Attribute::categorical("height"),
        Attribute::categorical("club"),
        Attribute::categorical("league"),
        Attribute::categorical("season"),
        Attribute::categorical("jersey"),
    ])
    .expect("static schema is valid")
}

fn build_players(rng: &mut StdRng, count: usize) -> Vec<Player> {
    (0..count)
        .map(|i| {
            let (city, country) = *pick(rng, EURO_CITIES);
            Player {
                // The numeric suffix keeps player names unique, like real rosters.
                name: format!("{}.{i:04}", vocab::person_name(rng)),
                birthyear: format!("{}", 1960 + rng.gen_range(0..39)),
                birthplace: city.to_string(),
                country: country.to_string(),
                position: pick(rng, POSITIONS).to_string(),
                height: format!("{}", 165 + rng.gen_range(0..31)),
            }
        })
        .collect()
}

/// Generate a clean Soccer dataset with `rows` player-season tuples.
pub fn generate(rows: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    // Each player appears in roughly four seasons.
    let num_players = (rows / 4).max(1);
    let players = build_players(&mut rng, num_players);
    // Stable club assignment per (player, phase): players change clubs rarely.
    let mut ds = Dataset::with_capacity(schema(), rows);
    for i in 0..rows {
        let p_idx = i % players.len();
        let player = &players[p_idx];
        let season_idx = (i / players.len()) % 8;
        let season = format!("{}", 2008 + season_idx);
        // Club changes at most once mid-career, deterministically per player.
        let club_phase = usize::from(season_idx >= 4 && p_idx.is_multiple_of(3));
        // 11 is coprime with the club-pool size, so the assignment covers every club.
        let (club, league) = CLUBS[(p_idx * 11 + club_phase * 13) % CLUBS.len()];
        let jersey = format!("{}", 1 + (p_idx * 17 + club_phase) % 30);
        ds.push_row(vec![
            Value::text(player.name.clone()),
            Value::Text(player.birthyear.clone()),
            Value::text(player.birthplace.clone()),
            Value::text(player.country.clone()),
            Value::text(player.position.clone()),
            Value::Text(player.height.clone()),
            Value::text(club),
            Value::text(league),
            Value::Text(season),
            Value::Text(jersey),
        ])
        .expect("row arity matches schema");
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn shape_and_determinism() {
        let a = generate(1000, 3);
        assert_eq!(a.num_rows(), 1000);
        assert_eq!(a.num_columns(), 10);
        assert_eq!(a, generate(1000, 3));
        assert_ne!(a, generate(1000, 4));
    }

    #[test]
    fn club_determines_league() {
        let d = generate(2000, 1);
        let mut seen: HashMap<String, String> = HashMap::new();
        for row in d.rows() {
            let club = row[6].to_string();
            let league = row[7].to_string();
            let entry = seen.entry(club).or_insert_with(|| league.clone());
            assert_eq!(entry, &league, "club -> league FD violated");
        }
        assert!(seen.len() >= 20);
    }

    #[test]
    fn birthplace_determines_country() {
        let d = generate(2000, 2);
        let mut seen: HashMap<String, String> = HashMap::new();
        for row in d.rows() {
            let place = row[2].to_string();
            let country = row[3].to_string();
            let entry = seen.entry(place).or_insert_with(|| country.clone());
            assert_eq!(entry, &country, "birthplace -> country FD violated");
        }
    }

    #[test]
    fn name_determines_birthyear() {
        let d = generate(2000, 5);
        let mut seen: HashMap<String, String> = HashMap::new();
        for row in d.rows() {
            let name = row[0].to_string();
            let year = row[1].to_string();
            let entry = seen.entry(name).or_insert_with(|| year.clone());
            assert_eq!(entry, &year, "name -> birthyear FD violated");
        }
    }

    #[test]
    fn years_match_paper_constraints() {
        let birth = bclean_regex::Regex::new("([1][9][6-9][0-9])").unwrap();
        let season = bclean_regex::Regex::new("([2][0][0-9][0-9])").unwrap();
        let d = generate(500, 6);
        for row in d.rows() {
            assert!(birth.is_full_match(&row[1].to_string()), "birthyear {}", row[1]);
            assert!(season.is_full_match(&row[8].to_string()), "season {}", row[8]);
        }
    }

    #[test]
    fn players_repeat_across_seasons() {
        let d = generate(1000, 7);
        let mut counts: HashMap<String, usize> = HashMap::new();
        for row in d.rows() {
            *counts.entry(row[0].to_string()).or_insert(0) += 1;
        }
        assert!(counts.values().any(|&c| c >= 3));
    }

    #[test]
    fn no_nulls_in_clean_data() {
        assert_eq!(generate(500, 8).null_count(), 0);
    }
}
