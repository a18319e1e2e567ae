//! Flights benchmark generator (2376 × 6 in the paper).
//!
//! Each row reports one flight's scheduled/actual departure and arrival times
//! as recorded by one of ~37 websites; the flight identifier functionally
//! determines all four times. The real dataset has a ~30% error rate coming
//! from sources that disagree; errors are injected separately, so the clean
//! generator emits fully consistent reports.

use bclean_data::{Attribute, Dataset, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::vocab::{pick, AIRLINES, FLIGHT_SOURCES};

/// Number of distinct flights in the pool.
const NUM_FLIGHTS: usize = 80;

struct Flight {
    id: String,
    sched_dep: String,
    act_dep: String,
    sched_arr: String,
    act_arr: String,
}

/// Format a time the way the paper's UC pattern expects: `7:10a.m.`,
/// `12:45p.m.`, `09:05a.m.`.
pub fn format_time(hour24: u32, minute: u32) -> String {
    let suffix = if hour24 < 12 { "a" } else { "p" };
    let hour12 = match hour24 % 12 {
        0 => 12,
        h => h,
    };
    format!("{hour12}:{minute:02}{suffix}.m.")
}

fn build_flights(rng: &mut StdRng) -> Vec<Flight> {
    let airports = ["dfw", "ord", "lax", "jfk", "atl", "den", "sfo", "mia", "sea", "phx"];
    (0..NUM_FLIGHTS)
        .map(|i| {
            let airline = pick(rng, AIRLINES);
            let number = 100 + rng.gen_range(0..8900);
            let from = airports[i % airports.len()];
            let to = airports[(i + 1 + rng.gen_range(0..8)) % airports.len()];
            let dep_hour = rng.gen_range(5..23);
            let dep_min = rng.gen_range(0..60);
            let duration_min = rng.gen_range(60..300);
            let delay = rng.gen_range(0..35);
            let act_dep_total = dep_hour * 60 + dep_min + delay;
            let arr_total = act_dep_total + duration_min;
            Flight {
                id: format!("{airline}-{number}-{from}-{to}"),
                sched_dep: format_time(dep_hour, dep_min),
                act_dep: format_time((act_dep_total / 60) % 24, act_dep_total % 60),
                sched_arr: format_time(
                    ((dep_hour * 60 + dep_min + duration_min) / 60) % 24,
                    (dep_min + duration_min) % 60,
                ),
                act_arr: format_time((arr_total / 60) % 24, arr_total % 60),
            }
        })
        .collect()
}

/// The Flights schema (6 attributes).
pub fn schema() -> Schema {
    Schema::new(vec![
        Attribute::categorical("src"),
        Attribute::categorical("flight"),
        Attribute::categorical("sched_dep_time"),
        Attribute::categorical("act_dep_time"),
        Attribute::categorical("sched_arr_time"),
        Attribute::categorical("act_arr_time"),
    ])
    .expect("static schema is valid")
}

/// Generate a clean Flights dataset with `rows` tuples.
pub fn generate(rows: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let flights = build_flights(&mut rng);
    let mut ds = Dataset::with_capacity(schema(), rows);
    for i in 0..rows {
        let flight = &flights[i % flights.len()];
        let source = FLIGHT_SOURCES[(i / flights.len()) % FLIGHT_SOURCES.len()];
        ds.push_row(vec![
            Value::text(source),
            Value::text(flight.id.clone()),
            Value::text(flight.sched_dep.clone()),
            Value::text(flight.act_dep.clone()),
            Value::text(flight.sched_arr.clone()),
            Value::text(flight.act_arr.clone()),
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
        let a = generate(300, 11);
        assert_eq!(a.num_rows(), 300);
        assert_eq!(a.num_columns(), 6);
        assert_eq!(a, generate(300, 11));
        assert_ne!(a, generate(300, 12));
    }

    #[test]
    fn flight_determines_times() {
        let d = generate(500, 1);
        let mut seen: HashMap<String, Vec<String>> = HashMap::new();
        for row in d.rows() {
            let flight = row[1].to_string();
            let times: Vec<String> = (2..6).map(|c| row[c].to_string()).collect();
            let entry = seen.entry(flight).or_insert_with(|| times.clone());
            assert_eq!(entry, &times, "flight -> times FD violated");
        }
        assert!(seen.len() >= 50);
    }

    #[test]
    fn times_match_paper_pattern() {
        let re = bclean_regex::Regex::new(
            r"([1-9]:[0-5][0-9][ap]\.m\.|1[0-2]:[0-5][0-9][ap]\.m\.|0[1-9]:[0-5][0-9][ap]\.m\.)",
        )
        .unwrap();
        let d = generate(400, 2);
        for row in d.rows() {
            for value in &row[2..6] {
                let t = value.to_string();
                assert!(re.is_full_match(&t), "time {t} does not match the UC pattern");
            }
        }
    }

    #[test]
    fn format_time_cases() {
        assert_eq!(format_time(7, 10), "7:10a.m.");
        assert_eq!(format_time(0, 5), "12:05a.m.");
        assert_eq!(format_time(12, 45), "12:45p.m.");
        assert_eq!(format_time(23, 59), "11:59p.m.");
    }

    #[test]
    fn multiple_sources_per_flight() {
        let d = generate(400, 3);
        let mut sources_per_flight: HashMap<String, std::collections::HashSet<String>> = HashMap::new();
        for row in d.rows() {
            sources_per_flight.entry(row[1].to_string()).or_default().insert(row[0].to_string());
        }
        assert!(sources_per_flight.values().any(|s| s.len() >= 3));
    }

    #[test]
    fn no_nulls_in_clean_data() {
        assert_eq!(generate(200, 4).null_count(), 0);
    }
}
