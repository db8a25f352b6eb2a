//! Order statistics and the repository's FNV-1a fingerprint.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule;
/// 0 for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample in place (all values are finite by construction).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile(&v, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `f64` bit patterns: the same fold `tests/paper_shapes.rs`
/// pins its golden checksums with.
pub fn fnv_f64(acc: u64, v: f64) -> u64 {
    (acc ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
}

pub fn fnv_u64(acc: u64, v: u64) -> u64 {
    (acc ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn fnv_matches_the_repo_fold() {
        // One step of the fold, by hand.
        assert_eq!(fnv_f64(FNV_BASIS, 0.0), FNV_BASIS.wrapping_mul(0x0000_0100_0000_01b3));
        assert_ne!(fnv_f64(FNV_BASIS, 1.0), fnv_f64(FNV_BASIS, 2.0));
    }
}
