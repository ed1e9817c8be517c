//! Experiment reporting: the aligned table behind Table 1 (text plus CSV)
//! and the relative prediction error every exhibit reports.

#![warn(missing_docs)]

pub mod table;

pub use table::Table;

/// Relative prediction error `(predicted − measured) / measured`.
pub fn rel_error(measured: f64, predicted: f64) -> f64 {
    (predicted - measured) / measured
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_error_signs() {
        assert!((rel_error(100.0, 104.0) - 0.04).abs() < 1e-12);
        assert!((rel_error(100.0, 92.0) + 0.08).abs() < 1e-12);
    }
}
