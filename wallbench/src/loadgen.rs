//! Seeded input streams: splitmix64 draws and open-loop Poisson arrival
//! schedules.

/// One step of splitmix64.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)`.
pub fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Due times (seconds from the phase start) of a Poisson arrival process
/// at `rate_per_s` over `duration_s`: cumulative exponential gaps drawn
/// from `seed`, so a seed always replays the same schedule.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, duration_s: f64) -> Vec<f64> {
    let mut state = seed;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // Inverse-CDF draw; 1 - u keeps the logarithm finite.
        t += -(1.0 - unit(&mut state)).ln() / rate_per_s;
        if t >= duration_s {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(11, 1000.0, 2.0);
        assert_eq!(a, poisson_schedule(11, 1000.0, 2.0));
        assert_ne!(a, poisson_schedule(12, 1000.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
        // 2000 expected arrivals; a Poisson count stays well within ±10%.
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn unit_draws_stay_in_range() {
        let mut s = 3;
        assert!((0..1000)
            .map(|_| unit(&mut s))
            .all(|u| (0.0..1.0).contains(&u)));
    }
}
