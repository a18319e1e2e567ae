//! Benchmark specifications matching Table 2 of the paper.
//!
//! [`BenchmarkDataset`] ties together a generator, the default row count, the
//! default noise rate and the default error-type mix of each benchmark, so
//! that the evaluation harness and the benches can say
//! `BenchmarkDataset::Hospital.build(seed)` and get a ready-to-clean
//! dirty/clean pair.

use bclean_data::Dataset;

use crate::errors::{inject_errors, DirtyDataset, ErrorSpec, ErrorType};
use crate::generators;

/// The six benchmark datasets of the paper (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkDataset {
    /// Hospital: 1000 × 15, ~5% noise, T/M/I errors.
    Hospital,
    /// Flights: 2376 × 6, ~30% noise, T/M errors.
    Flights,
    /// Soccer: 200 000 × 10 in the paper (20 000 by default here), ~1% noise, T/M/I.
    Soccer,
    /// Beers: 2410 × 11, ~13% noise, T/M/I.
    Beers,
    /// Inpatient: 4017 × 11, ~10% noise, T/M/I/S.
    Inpatient,
    /// Facilities: 7992 × 11, ~5% noise, T/M/I/S.
    Facilities,
}

impl BenchmarkDataset {
    /// All six datasets in the paper's table order.
    pub fn all() -> [BenchmarkDataset; 6] {
        [
            BenchmarkDataset::Hospital,
            BenchmarkDataset::Flights,
            BenchmarkDataset::Soccer,
            BenchmarkDataset::Beers,
            BenchmarkDataset::Inpatient,
            BenchmarkDataset::Facilities,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            BenchmarkDataset::Hospital => "Hospital",
            BenchmarkDataset::Flights => "Flights",
            BenchmarkDataset::Soccer => "Soccer",
            BenchmarkDataset::Beers => "Beers",
            BenchmarkDataset::Inpatient => "Inpatient",
            BenchmarkDataset::Facilities => "Facilities",
        }
    }

    /// Row count of the real dataset (Table 2).
    pub fn paper_rows(&self) -> usize {
        match self {
            BenchmarkDataset::Hospital => 1000,
            BenchmarkDataset::Flights => 2376,
            BenchmarkDataset::Soccer => 200_000,
            BenchmarkDataset::Beers => 2410,
            BenchmarkDataset::Inpatient => 4017,
            BenchmarkDataset::Facilities => 7992,
        }
    }

    /// Default row count used by the reproduction harness. Identical to the
    /// paper except for Soccer, which is scaled from 200 000 to 20 000 rows to
    /// keep wall-clock reasonable ([`BenchmarkDataset::paper_rows`] keeps the
    /// full size).
    pub fn default_rows(&self) -> usize {
        match self {
            BenchmarkDataset::Soccer => 20_000,
            other => other.paper_rows(),
        }
    }

    /// A further reduced size for quick smoke runs and unit tests.
    pub fn small_rows(&self) -> usize {
        (self.default_rows() / 10).clamp(200, 2000)
    }

    /// Default cell noise rate (Table 2).
    pub fn noise_rate(&self) -> f64 {
        match self {
            BenchmarkDataset::Hospital => 0.05,
            BenchmarkDataset::Flights => 0.30,
            BenchmarkDataset::Soccer => 0.01,
            BenchmarkDataset::Beers => 0.13,
            BenchmarkDataset::Inpatient => 0.10,
            BenchmarkDataset::Facilities => 0.05,
        }
    }

    /// Default error-type mix (Table 2).
    pub fn error_types(&self) -> Vec<ErrorType> {
        match self {
            BenchmarkDataset::Flights => vec![ErrorType::Typo, ErrorType::Missing],
            BenchmarkDataset::Inpatient | BenchmarkDataset::Facilities => {
                vec![ErrorType::Typo, ErrorType::Missing, ErrorType::Inconsistency, ErrorType::Swap]
            }
            _ => vec![ErrorType::Typo, ErrorType::Missing, ErrorType::Inconsistency],
        }
    }

    /// Number of attributes (Table 2).
    pub fn num_columns(&self) -> usize {
        match self {
            BenchmarkDataset::Hospital => 15,
            BenchmarkDataset::Flights => 6,
            BenchmarkDataset::Soccer => 10,
            BenchmarkDataset::Beers => 11,
            BenchmarkDataset::Inpatient => 11,
            BenchmarkDataset::Facilities => 11,
        }
    }

    /// Generate the clean table with a custom row count.
    pub fn generate_clean(&self, rows: usize, seed: u64) -> Dataset {
        match self {
            BenchmarkDataset::Hospital => generators::hospital::generate(rows, seed),
            BenchmarkDataset::Flights => generators::flights::generate(rows, seed),
            BenchmarkDataset::Soccer => generators::soccer::generate(rows, seed),
            BenchmarkDataset::Beers => generators::beers::generate(rows, seed),
            BenchmarkDataset::Inpatient => generators::inpatient::generate(rows, seed),
            BenchmarkDataset::Facilities => generators::facilities::generate(rows, seed),
        }
    }

    /// The default error specification of this benchmark.
    pub fn default_error_spec(&self) -> ErrorSpec {
        ErrorSpec {
            rate: self.noise_rate(),
            types: self.error_types(),
            ..ErrorSpec::default_mix(self.noise_rate())
        }
    }

    /// Build the default dirty/clean benchmark pair at the default size.
    pub fn build(&self, seed: u64) -> DirtyDataset {
        self.build_sized(self.default_rows(), seed)
    }

    /// Build the benchmark pair at a reduced size for quick runs.
    pub fn build_small(&self, seed: u64) -> DirtyDataset {
        self.build_sized(self.small_rows(), seed)
    }

    /// Build the benchmark pair at an explicit size.
    pub fn build_sized(&self, rows: usize, seed: u64) -> DirtyDataset {
        let clean = self.generate_clean(rows, seed);
        inject_errors(&clean, &self.default_error_spec(), seed.wrapping_add(1))
    }

    /// Build the benchmark pair with a custom error rate (Figure 4(b)–(d)).
    pub fn build_with_rate(&self, rows: usize, rate: f64, seed: u64) -> DirtyDataset {
        let clean = self.generate_clean(rows, seed);
        let spec = ErrorSpec { rate, types: self.error_types(), ..ErrorSpec::default_mix(rate) };
        inject_errors(&clean, &spec, seed.wrapping_add(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_2_shapes() {
        for ds in BenchmarkDataset::all() {
            assert!(ds.paper_rows() >= 1000);
            assert!(ds.noise_rate() > 0.0 && ds.noise_rate() <= 0.3);
            assert!(!ds.error_types().is_empty());
            assert!(!ds.name().is_empty());
            assert!(ds.small_rows() <= ds.default_rows());
        }
        assert_eq!(BenchmarkDataset::Soccer.default_rows(), 20_000);
        assert_eq!(BenchmarkDataset::Hospital.default_rows(), 1000);
    }

    #[test]
    fn generated_columns_match_table_2() {
        for ds in BenchmarkDataset::all() {
            let clean = ds.generate_clean(50, 3);
            assert_eq!(clean.num_columns(), ds.num_columns(), "{}", ds.name());
            assert_eq!(clean.num_rows(), 50);
        }
    }

    #[test]
    fn build_small_injects_roughly_the_right_noise() {
        for ds in BenchmarkDataset::all() {
            let bench = ds.build_small(7);
            let realised = bench.error_rate();
            let target = ds.noise_rate();
            assert!(
                (realised - target).abs() < 0.05,
                "{}: realised {realised} vs target {target}",
                ds.name()
            );
            assert_eq!(bench.dirty.num_rows(), bench.clean.num_rows());
        }
    }

    #[test]
    fn flights_mix_excludes_inconsistencies() {
        let types = BenchmarkDataset::Flights.error_types();
        assert!(!types.contains(&ErrorType::Inconsistency));
        assert!(types.contains(&ErrorType::Typo));
        let inp = BenchmarkDataset::Inpatient.error_types();
        assert!(inp.contains(&ErrorType::Swap));
    }

    #[test]
    fn build_with_rate_honours_rate() {
        let d = BenchmarkDataset::Hospital.build_with_rate(300, 0.3, 5);
        assert!((d.error_rate() - 0.3).abs() < 0.05, "got {}", d.error_rate());
    }

    #[test]
    fn builds_are_deterministic() {
        let a = BenchmarkDataset::Beers.build_sized(200, 9);
        let b = BenchmarkDataset::Beers.build_sized(200, 9);
        assert_eq!(a.dirty, b.dirty);
        assert_eq!(a.clean, b.clean);
    }
}
