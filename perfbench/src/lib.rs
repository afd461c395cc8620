//! Open-loop YCSB benchmark over a live MS+SC chain of three tHT
//! replicas. See `README.md` in this directory for the workloads, the
//! metrics and how to run it.

pub mod check;
pub mod host;
pub mod loadgen;
pub mod ops;
pub mod trace;

/// The `q`-quantile (0..=1) of `v` by nearest rank; sorts `v`. NaN when
/// empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let i = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1;
    v[i]
}

/// Median of `v`; sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

#[cfg(test)]
mod tests {
    #[test]
    fn quantiles_by_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        assert_eq!(super::quantile(&mut v, 0.5), 50.0);
        assert_eq!(super::quantile(&mut v, 0.99), 99.0);
        assert_eq!(super::quantile(&mut v, 1.0), 100.0);
        assert!(super::median(&mut []).is_nan());
    }
}
