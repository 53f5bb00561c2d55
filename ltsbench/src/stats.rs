//! Order statistics, the gated step time of a run, and the bit checksum of
//! a final field.

/// Quantile `q` in `[0, 1]` of `xs`, interpolating linearly between order
/// statistics (the "type 7" rule of R and numpy). `None` for no samples.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let h = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(s[lo] + (h - lo as f64) * (s[hi] - s[lo]))
}

pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// The gated step time of a run, from each operation's step times: per
/// operation the lower decile, then the lower quartile over the operations.
///
/// The host's slow phases only ever add time and last from seconds to
/// minutes, so the lower tail is what repeats between runs. Taken in two
/// stages it holds against both ways the host moves it: a slow phase must
/// cover three quarters of a run's operations to raise it, and a fast
/// spell (the two ranks of `trench-r2` getting both cores to themselves,
/// ~30 ms steps instead of ~45 ms, in 0–15% of its steps) must cover a
/// quarter of them to lower it. A decile of all steps pooled sits on the
/// edge of that fast spell.
pub fn run_step_time<'a>(ops: impl IntoIterator<Item = &'a [f64]>) -> Option<f64> {
    let per_op: Vec<f64> = ops.into_iter().filter_map(|s| quantile(s, 0.1)).collect();
    quantile(&per_op, 0.25)
}

/// FNV-1a over the IEEE-754 bits of `u` then `v`: equal exactly when the
/// two fields are bitwise equal (up to hash collisions).
pub fn field_checksum(u: &[f64], v: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in u.iter().chain(v) {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 0.5), Some(3.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(quantile(&xs, 0.1), Some(1.4));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn run_step_time_is_lower_quartile_of_per_operation_deciles() {
        // per-operation deciles 1.4, 11.4, 21.4, 31.4, 41.4 (as in the
        // quantile test, shifted by 10 per operation)
        let ops: Vec<Vec<f64>> = (0..5)
            .map(|k| {
                [4.0, 1.0, 3.0, 2.0, 5.0]
                    .map(|x| x + 10.0 * k as f64)
                    .to_vec()
            })
            .collect();
        let t = run_step_time(ops.iter().map(Vec::as_slice)).unwrap();
        assert!((t - 11.4).abs() < 1e-12, "{t}");
        // one fast operation does not move it, nor do slow ones
        let mut spiky = vec![vec![50.0; 48]; 8];
        spiky[0] = vec![30.0; 48];
        spiky[7] = vec![90.0; 48];
        spiky[6] = vec![90.0; 48];
        assert_eq!(run_step_time(spiky.iter().map(Vec::as_slice)), Some(50.0));
        assert_eq!(run_step_time(std::iter::empty()), None);
        assert_eq!(run_step_time([&[][..]]), None);
    }

    #[test]
    fn checksum_sees_every_bit_and_the_field_order() {
        let u = [1.0, -0.0, 2.5];
        let v = [0.0, 3.0, 1e-300];
        let c = field_checksum(&u, &v);
        assert_eq!(c, field_checksum(&u, &v));
        // -0.0 vs 0.0 compare equal as floats but not as bits
        assert_ne!(c, field_checksum(&[1.0, 0.0, 2.5], &v));
        // one ulp
        let bumped = [1.0, -0.0, f64::from_bits(2.5f64.to_bits() + 1)];
        assert_ne!(c, field_checksum(&bumped, &v));
        assert_ne!(c, field_checksum(&v, &u));
    }
}
