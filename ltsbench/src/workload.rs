//! The two workloads and one *operation* of each: set-up, stepping and
//! output check of one simulation, timed from outside the program around
//! its calls into `lts-mesh`, `lts-partition`, `lts-sem`, `lts-core` and
//! `lts-runtime`.

use crate::stats::field_checksum;
use crate::traced::{LevelKernel, Traced};
use lts_core::energy::discrete_energy;
use lts_core::{LtsNewmark, LtsSetup, Operator};
use lts_mesh::{BenchmarkMesh, MeshKind};
use lts_obs::{EventKind, MetricsRegistry, RankRecording};
use lts_partition::{edge_cut, load_imbalance, mpi_volume, partition_mesh, Strategy};
use lts_runtime::stats::{lambda_from_stats, names};
use lts_runtime::{
    run_distributed_local_acoustic_flight, DistributedConfig, MonitorConfig, RankStats,
};
use lts_sem::gll::cfl_dt_scale;
use lts_sem::AcousticOperator;
use std::collections::BTreeMap;
use std::time::Instant;

/// Polynomial order of every workload (the paper's).
pub const ORDER: usize = 4;
/// Requested element count of the trench mesh (the perf tier's size).
pub const TARGET_ELEMS: usize = 20_000;
/// Global steps one operation takes after its warm-up step.
pub const STEPS: usize = 48;
/// Bound on the relative change of `lts_core::energy::discrete_energy`
/// over one operation: a blow-up fence, not a conservation check. This
/// leap-frog energy is conserved by plain Newmark (to 1e-14 on the trench)
/// but not by LTS-Newmark on the SEM meshes: from the trench's `u0` it
/// moves by up to ~40% within 50 steps while `‖u‖` stays bounded (see
/// `README.md`), whereas an unstable run grows by orders of magnitude.
pub const ENERGY_DRIFT_BOUND: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrenchSerial,
    TrenchR2,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::TrenchSerial, Workload::TrenchR2];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrenchSerial => "trench-serial",
            Workload::TrenchR2 => "trench-r2",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The generated inputs of one run: everything the seed decides.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    /// Phase of the initial displacement `u0[i] = sin(0.003 i + phase)`.
    pub phase: f64,
    /// Seed handed to the SCOTCH-P partitioner.
    pub partition_seed: u64,
}

impl Inputs {
    pub fn from_seed(seed: u64) -> Self {
        // splitmix64 finalizer: nearby seeds give unrelated phases
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Inputs {
            phase: (z >> 11) as f64 / (1u64 << 53) as f64 * std::f64::consts::TAU,
            partition_seed: seed,
        }
    }

    pub fn initial_field(&self, ndof: usize) -> Vec<f64> {
        (0..ndof)
            .map(|i| (i as f64 * 0.003 + self.phase).sin())
            .collect()
    }
}

/// What one operation measured.
#[derive(Debug, Clone, Default)]
pub struct Op {
    /// First call into `lts-mesh` to the end of the warm-up global step.
    pub setup_s: f64,
    /// Wall time of every global step after the warm-up step.
    pub step_ms: Vec<f64>,
    /// Masked element products per global step (exact).
    pub elem_ops_per_step: u64,
    /// [`field_checksum`] of the final `(u, v)`.
    pub checksum: u64,
    /// Relative energy change, when the operation was asked to check it.
    pub energy_drift: Option<f64>,
    /// Per-layer metrics of this operation, by catalog name.
    pub layers: BTreeMap<String, f64>,
    /// The final `(u, v)`.
    pub fields: (Vec<f64>, Vec<f64>),
}

/// Run one operation of `w`. `traced` steps `trench-serial` through
/// [`Traced`]; `check_energy` adds its (untimed) energy check. A broken
/// consistency check is an `Err` naming it.
pub fn run_op(
    w: Workload,
    inputs: &Inputs,
    traced: bool,
    check_energy: bool,
) -> Result<Op, String> {
    match w {
        Workload::TrenchSerial => serial_op(inputs, traced, check_energy),
        Workload::TrenchR2 => r2_op(inputs, traced),
    }
}

fn global_dt(b: &BenchmarkMesh) -> f64 {
    b.levels.dt_global * cfl_dt_scale(ORDER, 3)
}

fn check_finite(u: &[f64], v: &[f64]) -> Result<(), String> {
    match u.iter().chain(v).position(|x| !x.is_finite()) {
        None => Ok(()),
        Some(i) => Err(format!("non-finite final field at entry {i}")),
    }
}

/// Relative change of the discrete energy from the initial state
/// (`u⁻¹ = u⁰` because `v⁻¹ᐟ² = 0`) to the final one (`uᴺ⁻¹ = uᴺ − Δt vᴺ⁻¹ᐟ²`).
pub fn energy_drift<O: Operator>(
    op: &O,
    dt: f64,
    u0: &[f64],
    u: &[f64],
    v: &[f64],
) -> Result<f64, String> {
    let e0 = discrete_energy(op, u0, u0, &vec![0.0; u0.len()]);
    let u_prev: Vec<f64> = u.iter().zip(v).map(|(u, v)| u - dt * v).collect();
    let e1 = discrete_energy(op, &u_prev, u, v);
    let drift = ((e1 - e0) / e0).abs();
    if drift.is_finite() && drift <= ENERGY_DRIFT_BOUND {
        Ok(drift)
    } else {
        Err(format!(
            "energy changed by {drift:e} (bound {ENERGY_DRIFT_BOUND:e}): {e0:e} → {e1:e}"
        ))
    }
}

/// Gather/scatter bytes one masked acoustic element product moves,
/// computed from the element size: per node an 8-byte gather of `u`, an
/// 8-byte read plus 8-byte write of `out`, and one 4-byte node index.
/// Geometry factors and cache misses are not counted.
const GATHER_BYTES_PER_ELEM: u64 = ((ORDER + 1) * (ORDER + 1) * (ORDER + 1)) as u64 * (24 + 4);

/// Share of an interval (set-up, stepping) its layers must account for.
/// The layer timers are consecutive sub-intervals of the whole, so this
/// only catches work that falls between them, untimed; it does not check
/// any layer time against an independent figure.
pub const CLOSURE_MIN: f64 = 0.95;

fn check_closure(what: &str, share: f64) -> Result<(), String> {
    // layers are disjoint sub-intervals of the whole, so they never exceed it
    if (CLOSURE_MIN..=1.0 + 1e-9).contains(&share) {
        Ok(())
    } else {
        Err(format!(
            "{what} layers account for {:.1}% of it",
            100.0 * share
        ))
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn serial_op(inputs: &Inputs, traced: bool, check_energy: bool) -> Result<Op, String> {
    let steps = STEPS;
    let t0 = Instant::now();
    let b = BenchmarkMesh::build(MeshKind::Trench, TARGET_ELEMS);
    let mesh_s = secs(t0);
    let t = Instant::now();
    let op = AcousticOperator::new(&b.mesh, ORDER);
    let operator_s = secs(t);
    // the benchmark's own input generation is not set-up of the program
    let t = Instant::now();
    let u = inputs.initial_field(op.ndof());
    let v = vec![0.0; u.len()];
    let u0 = check_energy.then(|| u.clone());
    let inputs_s = secs(t);
    let t = Instant::now();
    let setup = LtsSetup::new(&op, &b.levels.elem_level);
    let setup_new_s = secs(t);
    let dt = global_dt(&b);

    let tracer = Traced::new(&op);
    let run = if traced {
        step_serial(&tracer, &setup, dt, (u, v), steps, || tracer.take())
    } else {
        step_serial(&op, &setup, dt, (u, v), steps, Vec::new)
    };
    let setup_s = run.setup_end.duration_since(t0).as_secs_f64() - inputs_s;
    let mut out = Op {
        setup_s,
        elem_ops_per_step: setup.lts_elem_ops(),
        checksum: field_checksum(&run.u, &run.v),
        ..Op::default()
    };
    check_finite(&run.u, &run.v)?;
    if run.elem_ops != (steps as u64 + 1) * out.elem_ops_per_step {
        return Err(format!(
            "stepper counted {} element products, expected {}",
            run.elem_ops,
            (steps as u64 + 1) * out.elem_ops_per_step
        ));
    }
    if let Some(u0) = u0 {
        out.energy_drift = Some(energy_drift(&op, dt, &u0, &run.u, &run.v)?);
    }

    let core_setup_s = setup_new_s + run.stepper_new_s;
    let l = &mut out.layers;
    l.insert("mesh.build_s".into(), mesh_s);
    l.insert("sem.operator_s".into(), operator_s);
    l.insert("core.setup_s".into(), core_setup_s);
    l.insert(
        "core.elem_ops_per_step".into(),
        out.elem_ops_per_step as f64,
    );
    l.insert(
        "sem.gather_bytes_per_step".into(),
        (out.elem_ops_per_step * GATHER_BYTES_PER_ELEM) as f64,
    );
    let setup_share = (mesh_s + operator_s + core_setup_s + run.warmup_s) / setup_s;
    check_closure("setup_s", setup_share)?;
    l.insert("obs.setup_closure".into(), setup_share);
    if traced {
        let first = tracer.first_apply_s();
        let kernel = tracer.take();
        l.insert("sem.first_apply_s".into(), first);
        l.insert("core.warmup_rest_s".into(), run.warmup_s - first);
        let kernel_s: f64 = kernel.iter().map(|k| k.seconds).sum();
        let kernel_elems: u64 = kernel.iter().map(|k| k.elems).sum();
        for (lv, k) in kernel.iter().enumerate().take(setup.n_levels) {
            l.insert(format!("sem.kernel_s.l{lv}"), k.seconds);
            l.insert(format!("sem.kernel_calls.l{lv}"), k.calls as f64);
        }
        if kernel_elems != steps as u64 * out.elem_ops_per_step {
            return Err("traced products do not match the stepper's count".into());
        }
        // the per-step timers split into kernel + update, and must cover
        // the stepping wall of the outer timer
        let timed_s = run.step_ms.iter().sum::<f64>() * 1e-3;
        let update_s = timed_s - kernel_s;
        if update_s < 0.0 {
            return Err("traced kernel time exceeds the stepping time".into());
        }
        let step_share = timed_s / run.stepping_s;
        check_closure("stepping", step_share)?;
        l.insert(
            "sem.kernel_elems_per_s".into(),
            kernel_elems as f64 / kernel_s,
        );
        l.insert("core.update_s".into(), update_s);
        l.insert("core.update_share".into(), update_s / timed_s);
        l.insert("obs.step_closure".into(), step_share);
    }
    out.step_ms = run.step_ms;
    out.fields = (run.u, run.v);
    Ok(out)
}

struct SerialRun {
    u: Vec<f64>,
    v: Vec<f64>,
    /// When the warm-up step ended.
    setup_end: Instant,
    stepper_new_s: f64,
    warmup_s: f64,
    step_ms: Vec<f64>,
    stepping_s: f64,
    elem_ops: u64,
}

/// Build the (single-threaded) stepper, take the warm-up step (then call
/// `after_warmup`, which the traced run uses to separate set-up from
/// stepping), and time `steps` more global steps one by one.
fn step_serial<S: Operator>(
    op: &S,
    setup: &LtsSetup,
    dt: f64,
    (mut u, mut v): (Vec<f64>, Vec<f64>),
    steps: usize,
    after_warmup: impl FnOnce() -> Vec<LevelKernel>,
) -> SerialRun {
    let t = Instant::now();
    let mut lts = LtsNewmark::new(op, setup, dt);
    let stepper_new_s = secs(t);
    let t = Instant::now();
    lts.step(&mut u, &mut v, 0.0, &[]);
    let setup_end = Instant::now();
    let warmup_s = setup_end.duration_since(t).as_secs_f64();
    let _ = after_warmup();
    let mut step_ms = Vec::with_capacity(steps);
    let ts = Instant::now();
    for k in 1..=steps {
        let t = Instant::now();
        lts.step(&mut u, &mut v, k as f64 * dt, &[]);
        step_ms.push(secs(t) * 1e3);
    }
    let stepping_s = secs(ts);
    SerialRun {
        elem_ops: lts.stats.elem_ops,
        u,
        v,
        setup_end,
        stepper_new_s,
        warmup_s,
        step_ms,
        stepping_s,
    }
}

/// Ranks and the CLI's default distributed configuration otherwise.
const R2_RANKS: usize = 2;

fn r2_config(steps: usize, n_levels: usize) -> DistributedConfig {
    // The default ring holds 4,096 events; this one holds every event of
    // the run (≤ ~6 per exchange, 2^l exchanges of level l per step), so
    // the first step's boundaries survive. Recording cost per event is
    // unchanged.
    let per_step = 8 * (1usize << n_levels) + 4;
    DistributedConfig {
        record_timeline: true,
        stall_monitor: Some(MonitorConfig::default()),
        flight_capacity: (steps * per_step).max(lts_obs::FlightRecorder::DEFAULT_CAPACITY),
        ..DistributedConfig::new(R2_RANKS)
    }
}

/// `(start_s, dur_s)` of the host span `name`.
fn span(host: &MetricsRegistry, name: &str) -> Result<(f64, f64), String> {
    host.trace()
        .iter()
        .find(|e| e.name == name)
        .map(|e| (e.start_s, e.dur_s))
        .ok_or_else(|| format!("runtime recorded no {name} span"))
}

/// Per global step: the latest `kind` timestamp over ranks, in seconds
/// since the rank group's shared recorder epoch.
fn step_marks(recs: &[RankRecording], kind: EventKind, n_steps: usize) -> Result<Vec<f64>, String> {
    let mut marks = vec![f64::NAN; n_steps];
    for rec in recs {
        if rec.dropped > 0 {
            return Err(format!(
                "rank {} flight ring dropped {} events",
                rec.rank, rec.dropped
            ));
        }
        let mut seen = 0;
        for ev in rec.events.iter().filter(|e| e.kind == kind) {
            let slot = marks
                .get_mut(ev.step as usize)
                .ok_or_else(|| format!("step {} out of range", ev.step))?;
            let t = ev.t_ns as f64 * 1e-9;
            *slot = if slot.is_nan() { t } else { slot.max(t) };
            seen += 1;
        }
        if seen != n_steps {
            return Err(format!(
                "rank {} recorded {seen} of {n_steps} {kind:?}",
                rec.rank
            ));
        }
    }
    Ok(marks)
}

fn r2_op(inputs: &Inputs, traced: bool) -> Result<Op, String> {
    let steps = STEPS;
    let t0 = Instant::now();
    let b = BenchmarkMesh::build(MeshKind::Trench, TARGET_ELEMS);
    let mesh_s = secs(t0);
    let t = Instant::now();
    let part = partition_mesh(
        &b.mesh,
        &b.levels,
        R2_RANKS,
        Strategy::ScotchP,
        inputs.partition_seed,
    );
    let partition_s = secs(t);
    let t = Instant::now();
    let ndof = b.mesh.n_gll_nodes(ORDER);
    let u0 = inputs.initial_field(ndof);
    let v0 = vec![0.0; ndof];
    let inputs_s = secs(t);
    let n_levels = b.levels.n_levels;
    let cfg = r2_config(steps + 1, n_levels);
    let host_epoch = secs(t0);
    let mut host = MetricsRegistry::with_trace();
    let (run, recs) = run_distributed_local_acoustic_flight(
        &b.mesh,
        &b.levels,
        ORDER,
        &part,
        global_dt(&b),
        &u0,
        &v0,
        steps + 1,
        &cfg,
        &[],
        &mut host,
    );
    let (u, v, stats) = run.map_err(|e| format!("distributed run failed: {e}"))?;
    check_finite(&u, &v)?;

    let (_, discretize_s) = span(&host, "decompose.discretize")?;
    let (_, worlds_s) = span(&host, "decompose.build_worlds")?;
    let (run_start, run_s) = span(&host, "run.steps")?;
    let begins = step_marks(&recs, EventKind::StepBegin, steps + 1)?;
    let ends = step_marks(&recs, EventKind::StepEnd, steps + 1)?;
    let prestep_s = begins[0];
    let warmup_step_s = ends[0] - begins[0];
    let setup_s = host_epoch - inputs_s + run_start + ends[0];
    let step_ms: Vec<f64> = ends.windows(2).map(|w| (w[1] - w[0]) * 1e3).collect();

    let total = |f: fn(&RankStats) -> u64| stats.iter().map(f).sum::<u64>();
    let n_steps = (steps + 1) as f64;
    let elem_ops = total(|s| s.elem_ops);
    if elem_ops % (steps as u64 + 1) != 0 {
        return Err(format!(
            "{elem_ops} element products over {} steps",
            steps + 1
        ));
    }
    // busy + wait of each rank must fit in the stepping wall
    let wall = run_s - prestep_s;
    let mut worst = 0.0f64;
    for s in &stats {
        let used = s.busy_s + s.wait_s;
        if used > run_s {
            return Err(format!(
                "rank {} busy+wait {used:.4}s exceeds the {run_s:.4}s stepping wall",
                s.rank
            ));
        }
        worst = worst.max(used);
    }
    let mut out = Op {
        setup_s,
        step_ms,
        elem_ops_per_step: elem_ops / (steps as u64 + 1),
        checksum: field_checksum(&u, &v),
        energy_drift: None,
        layers: BTreeMap::new(),
        fields: (u, v),
    };
    let setup_share =
        (mesh_s + partition_s + discretize_s + worlds_s + prestep_s + warmup_step_s) / setup_s;
    check_closure("setup_s", setup_share)?;
    let step_share = worst / wall;
    if step_share < CLOSURE_MIN {
        return Err(format!(
            "rank busy+wait accounts for {:.1}% of the stepping wall",
            100.0 * step_share
        ));
    }

    let l = &mut out.layers;
    l.insert("mesh.build_s".into(), mesh_s);
    l.insert("partition.s".into(), partition_s);
    l.insert("runtime.discretize_s".into(), discretize_s);
    l.insert("runtime.build_worlds_s".into(), worlds_s);
    l.insert("runtime.prestep_s".into(), prestep_s);
    l.insert("runtime.warmup_step_s".into(), warmup_step_s);
    l.insert(
        "core.elem_ops_per_step".into(),
        out.elem_ops_per_step as f64,
    );
    l.insert("obs.setup_closure".into(), setup_share);
    l.insert("obs.step_closure".into(), step_share);
    l.insert("runtime.msgs_sent".into(), total(|s| s.msgs_sent) as f64);
    l.insert(
        "runtime.msgs_per_step".into(),
        total(|s| s.msgs_sent) as f64 / n_steps,
    );
    l.insert(
        "runtime.dofs_sent_per_step".into(),
        total(|s| s.dofs_sent) as f64 / n_steps,
    );
    l.insert(
        "runtime.exchanges_per_step".into(),
        total(|s| s.n_exchanges) as f64 / n_steps,
    );
    let ready: u64 = stats
        .iter()
        .map(|s| s.registry.counter_total(names::EXCHANGE_READY))
        .sum();
    let sent = total(|s| s.msgs_sent);
    l.insert(
        "runtime.partials_ready_ratio".into(),
        if sent > 0 {
            ready as f64 / sent as f64
        } else {
            0.0
        },
    );
    let backend = cfg.transport.name();
    let send_block: f64 = stats
        .iter()
        .filter_map(|s| {
            s.registry
                .gauge_labeled(names::TRANSPORT_SEND_BLOCK_S, backend)
        })
        .sum();
    l.insert("transport.send_block_s".into(), send_block);
    let mut negative = 0u64;
    let mut busy = vec![0.0f64; n_levels];
    let mut wait = vec![0.0f64; n_levels];
    for s in &stats {
        for ls in s.per_level() {
            let lv = ls.level as usize;
            if lv < n_levels {
                busy[lv] = busy[lv].max(ls.busy_s);
                wait[lv] = wait[lv].max(ls.wait_s);
            }
            if let Some(h) = s.registry.histogram(names::WAIT, Some(ls.level)) {
                negative += u64::from(h.count > 0 && h.min < 0.0);
            }
        }
    }
    for lv in 0..n_levels {
        l.insert(format!("runtime.busy_s.l{lv}"), busy[lv]);
        l.insert(format!("runtime.wait_s.l{lv}"), wait[lv]);
    }
    for (lv, lambda) in lambda_from_stats(&stats) {
        l.insert(format!("runtime.lambda.l{lv}"), lambda);
    }
    l.insert("runtime.negative_waits".into(), negative as f64);
    if traced {
        let rep = load_imbalance(&b.levels, &part, R2_RANKS);
        for (lv, pct) in rep.per_level_pct.iter().enumerate() {
            l.insert(format!("partition.imbalance_pct.l{lv}"), *pct);
        }
        l.insert(
            "partition.edge_cut".into(),
            edge_cut(&b.mesh, &b.levels, &part) as f64,
        );
        l.insert(
            "partition.mpi_volume".into(),
            mpi_volume(&b.mesh, &b.levels, &part) as f64,
        );
    }
    Ok(out)
}

/// The serial reference of `trench-r2`: a `trench-serial` operation with
/// the same inputs and step count. It also carries the energy check for
/// both, since the two fields agree to round-off.
pub fn r2_reference(inputs: &Inputs) -> Result<Op, String> {
    run_op(Workload::TrenchSerial, inputs, false, true)
}

/// How far `trench-r2`'s final field may sit from the serial stepper's,
/// relative to the largest magnitude of each of `u` and `v`. This is the
/// contract of the rank-local runtime (`lts-runtime::local`, DESIGN.md:
/// "≤ 1e-12 vs serial"): its ranks assemble interface forces from per-rank
/// partial sums, so the field agrees with the serial one to round-off but
/// not bit for bit.
pub const SERIAL_AGREEMENT: f64 = 1e-12;

/// Entries of `(u, v)` whose bits differ from the serial field's, and the
/// largest difference relative to the serial field's largest magnitude.
pub fn compare_with_serial(
    dist: &(Vec<f64>, Vec<f64>),
    serial: &(Vec<f64>, Vec<f64>),
) -> (u64, f64) {
    let mut mismatches = 0u64;
    let mut worst = 0.0f64;
    for (a, b) in [(&dist.0, &serial.0), (&dist.1, &serial.1)] {
        if a.len() != b.len() {
            return (a.len().max(b.len()) as u64, f64::INFINITY);
        }
        let scale = b
            .iter()
            .fold(0.0f64, |m, x| m.max(x.abs()))
            .max(f64::MIN_POSITIVE);
        for (x, y) in a.iter().zip(b) {
            mismatches += u64::from(x.to_bits() != y.to_bits());
            worst = worst.max((x - y).abs() / scale);
        }
    }
    (mismatches, worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_on_the_seed_only() {
        let a = Inputs::from_seed(7);
        let b = Inputs::from_seed(7);
        assert_eq!(a.phase.to_bits(), b.phase.to_bits());
        assert_eq!(a.initial_field(50), b.initial_field(50));
        let c = Inputs::from_seed(8);
        assert_ne!(a.phase, c.phase);
        assert!((0.0..std::f64::consts::TAU).contains(&a.phase));
        assert_eq!(c.partition_seed, 8);
    }

    #[test]
    fn serial_comparison_counts_bits_and_scales_by_magnitude() {
        let serial = (vec![2.0, -4.0], vec![0.5, 0.0]);
        assert_eq!(compare_with_serial(&serial.clone(), &serial), (0, 0.0));
        let off = (vec![2.0, -4.0 + 4e-13], vec![0.5, -0.0]);
        let (n, rel) = compare_with_serial(&off, &serial);
        assert_eq!(n, 2, "-0.0 differs from 0.0 in its bits");
        assert!((rel - 1e-13).abs() < 1e-15, "{rel}");
        assert!(rel <= SERIAL_AGREEMENT);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("trench"), None);
    }

    #[test]
    fn r2_flight_ring_holds_every_event_of_the_run() {
        // 4 levels, 2 ranks: 15 exchanges per step, each at most
        // level begin/end + exchange begin/end + one send + one recv
        let cfg = r2_config(49, 4);
        assert!(cfg.flight_capacity >= 49 * (15 * 6 + 2));
    }
}
