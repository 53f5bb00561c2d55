//! The traced run's operator: a wrapper around any [`Operator`] that times
//! every masked product per LTS level from outside the program.

use crate::catalog::LEVEL_SLOTS;
use lts_core::{Operator, Workspace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Kernel time and work of one level over one measured interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelKernel {
    pub seconds: f64,
    pub calls: u64,
    pub elems: u64,
}

/// Forwards every [`Operator`] method to `inner` — the defaulted
/// `apply_masked_threads` and `precompile_masked` too, since inheriting
/// their defaults would serialize the threaded path and skip the
/// precompile — and times each masked product.
///
/// The counters are statistics that publish no other data, so `Relaxed`
/// suffices; the stepper calls the operator from one thread anyway.
pub struct Traced<'a, O: Operator> {
    inner: &'a O,
    ns: [AtomicU64; LEVEL_SLOTS],
    calls: [AtomicU64; LEVEL_SLOTS],
    elems: [AtomicU64; LEVEL_SLOTS],
    /// Duration of the first masked product per level (it compiles the
    /// gather lists and SIMD plan), `u64::MAX` until that call happened.
    first_ns: [AtomicU64; LEVEL_SLOTS],
}

impl<'a, O: Operator> Traced<'a, O> {
    pub fn new(inner: &'a O) -> Self {
        Traced {
            inner,
            ns: Default::default(),
            calls: Default::default(),
            elems: Default::default(),
            first_ns: std::array::from_fn(|_| AtomicU64::new(u64::MAX)),
        }
    }

    /// Per-level totals since the previous `take`, resetting them.
    pub fn take(&self) -> Vec<LevelKernel> {
        (0..LEVEL_SLOTS)
            .map(|l| LevelKernel {
                seconds: self.ns[l].swap(0, Ordering::Relaxed) as f64 * 1e-9,
                calls: self.calls[l].swap(0, Ordering::Relaxed),
                elems: self.elems[l].swap(0, Ordering::Relaxed),
            })
            .collect()
    }

    /// Seconds of the first masked product of each level that ran one.
    pub fn first_apply_s(&self) -> f64 {
        self.first_ns
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .filter(|&ns| ns != u64::MAX)
            .map(|ns| ns as f64 * 1e-9)
            .sum()
    }

    fn record(&self, level: u8, n_elems: usize, t0: Instant) {
        let ns = t0.elapsed().as_nanos() as u64;
        // a mesh deeper than the slots folds its finest levels into the last
        let l = (level as usize).min(LEVEL_SLOTS - 1);
        let _ =
            self.first_ns[l].compare_exchange(u64::MAX, ns, Ordering::Relaxed, Ordering::Relaxed);
        self.ns[l].fetch_add(ns, Ordering::Relaxed);
        self.calls[l].fetch_add(1, Ordering::Relaxed);
        self.elems[l].fetch_add(n_elems as u64, Ordering::Relaxed);
    }
}

impl<O: Operator> Operator for Traced<'_, O> {
    fn ndof(&self) -> usize {
        self.inner.ndof()
    }

    fn apply_ws(&self, u: &[f64], out: &mut [f64], ws: &mut Workspace) {
        self.inner.apply_ws(u, out, ws);
    }

    fn apply_masked_ws(
        &self,
        u: &[f64],
        out: &mut [f64],
        elems: &[u32],
        dof_level: &[u8],
        level: u8,
        ws: &mut Workspace,
    ) {
        let t0 = Instant::now();
        self.inner
            .apply_masked_ws(u, out, elems, dof_level, level, ws);
        self.record(level, elems.len(), t0);
    }

    fn apply_masked_threads(
        &self,
        u: &[f64],
        out: &mut [f64],
        elems: &[u32],
        dof_level: &[u8],
        level: u8,
        ws: &mut Workspace,
        threads: usize,
    ) {
        let t0 = Instant::now();
        self.inner
            .apply_masked_threads(u, out, elems, dof_level, level, ws, threads);
        self.record(level, elems.len(), t0);
    }

    fn precompile_masked(&self, elems: &[u32], dof_level: &[u8], level: u8, ws: &mut Workspace) {
        self.inner.precompile_masked(elems, dof_level, level, ws);
    }

    fn apply(&self, u: &[f64], out: &mut [f64]) {
        self.inner.apply(u, out);
    }

    fn apply_masked(&self, u: &[f64], out: &mut [f64], elems: &[u32], dof_level: &[u8], level: u8) {
        let t0 = Instant::now();
        self.inner.apply_masked(u, out, elems, dof_level, level);
        self.record(level, elems.len(), t0);
    }

    fn mass(&self) -> &[f64] {
        self.inner.mass()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_core::{Chain1d, LtsNewmark, LtsSetup};

    /// An operator whose defaulted methods are overridden with observable
    /// side effects, so a wrapper that inherits a default is caught.
    struct Probe {
        chain: Chain1d,
        threaded: AtomicU64,
        precompiled: AtomicU64,
    }

    impl Operator for Probe {
        fn ndof(&self) -> usize {
            self.chain.ndof()
        }
        fn apply_ws(&self, u: &[f64], out: &mut [f64], ws: &mut Workspace) {
            self.chain.apply_ws(u, out, ws);
        }
        fn apply_masked_ws(
            &self,
            u: &[f64],
            out: &mut [f64],
            elems: &[u32],
            dof_level: &[u8],
            level: u8,
            ws: &mut Workspace,
        ) {
            self.chain
                .apply_masked_ws(u, out, elems, dof_level, level, ws);
        }
        fn apply_masked_threads(
            &self,
            u: &[f64],
            out: &mut [f64],
            elems: &[u32],
            dof_level: &[u8],
            level: u8,
            ws: &mut Workspace,
            threads: usize,
        ) {
            self.threaded.fetch_add(threads as u64, Ordering::Relaxed);
            self.chain
                .apply_masked_ws(u, out, elems, dof_level, level, ws);
        }
        fn precompile_masked(&self, _: &[u32], _: &[u8], _: u8, _: &mut Workspace) {
            self.precompiled.fetch_add(1, Ordering::Relaxed);
        }
        fn mass(&self) -> &[f64] {
            self.chain.mass()
        }
    }

    fn levels_chain() -> (Chain1d, Vec<u8>, f64) {
        let mut vel = vec![1.0; 24];
        for v in &mut vel[17..] {
            *v = 2.0;
        }
        vel[21..].iter_mut().for_each(|v| *v = 4.0);
        let c = Chain1d::with_velocities(vel, 1.0);
        let (lv, dt) = c.assign_levels(0.5, 3);
        (c, lv, dt)
    }

    #[test]
    fn wrapper_forwards_defaulted_methods() {
        let (chain, _, _) = levels_chain();
        let p = Probe {
            chain,
            threaded: AtomicU64::new(0),
            precompiled: AtomicU64::new(0),
        };
        let t = Traced::new(&p);
        let n = t.ndof();
        let (u, mut out) = (vec![1.0; n], vec![0.0; n]);
        let mut ws = Workspace::new();
        let elems: Vec<u32> = (0..3).collect();
        let dof_level = vec![0u8; n];
        t.apply_masked_threads(&u, &mut out, &elems, &dof_level, 0, &mut ws, 2);
        t.precompile_masked(&elems, &dof_level, 0, &mut ws);
        assert_eq!(p.threaded.load(Ordering::Relaxed), 2);
        assert_eq!(p.precompiled.load(Ordering::Relaxed), 1);
        let k = t.take();
        assert_eq!((k[0].calls, k[0].elems), (1, 3));
        assert_eq!(t.take()[0].calls, 0, "take resets");
    }

    #[test]
    fn traced_stepping_is_bitwise_equal_and_counts_every_product() {
        let (c, lv, dt) = levels_chain();
        let setup = LtsSetup::new(&c, &lv);
        let n = c.ndof();
        let u0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let run = |op: &dyn Fn(&mut Vec<f64>, &mut Vec<f64>)| {
            let (mut u, mut v) = (u0.clone(), vec![0.0; n]);
            op(&mut u, &mut v);
            (u, v)
        };
        let plain = run(&|u, v| {
            LtsNewmark::new(&c, &setup, dt).run(u, v, 0.0, 20, &[]);
        });
        let traced = Traced::new(&c);
        let mut ops = 0;
        let wrapped = run(&|u, v| {
            let mut s = LtsNewmark::new(&traced, &setup, dt);
            s.run(u, v, 0.0, 20, &[]);
        });
        let bits = |x: &[f64]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain.0), bits(&wrapped.0));
        assert_eq!(bits(&plain.1), bits(&wrapped.1));
        for (l, k) in traced.take().iter().enumerate().take(setup.n_levels) {
            assert_eq!(k.calls, 20 << l, "level {l} products");
            assert_eq!(k.elems, k.calls * setup.elems[l].len() as u64);
            ops += k.elems;
        }
        assert_eq!(ops, 20 * setup.lts_elem_ops());
        assert!(traced.first_apply_s() > 0.0);
    }
}
