//! Distributed-*memory* execution: each rank builds a compact local
//! sub-operator over its own elements ([`lts_sem::UnstructuredAcoustic`],
//! [`lts_sem::UnstructuredElastic`]), so per-rank state scales with the
//! partition size instead of the mesh — the actual memory model of an MPI
//! code like SPECFEM3D.
//!
//! The stepping and exchange logic is the shared [`crate::distributed`]
//! rank context; only the index spaces change (everything is translated to
//! rank-local DOF/element numbering up front, through dense global→local
//! tables). At one rank the fields are bitwise equal to the serial stepper;
//! with more ranks an interface DOF's force is the sum of per-rank partials,
//! so fields agree with serial to within 1e-12 relative.

use crate::distributed::RunResult;
use crate::distributed::{run_rank_contexts_recorded, DistributedConfig, LocalRank};
use crate::exchange::build_plans;
use lts_core::{DofTopology, LtsSetup, Operator, Source};
use lts_mesh::{HexMesh, Levels};
use lts_obs::{MetricsRegistry, RankRecording};
use lts_sem::{AcousticOperator, ElasticOperator, UnstructuredAcoustic, UnstructuredElastic};

/// A gather-list operator a rank builds over its own elements.
trait RankLocal: Operator + Send + Sized {
    /// The global operator the decomposer discretizes first.
    type Global: Operator + DofTopology;
    /// DOFs per mesh node (interleaved components): DOF `= COMPS·node + comp`.
    const COMPS: u32;
    fn global(mesh: &HexMesh, order: usize) -> Self::Global;
    /// The operator over `elems` with the globally assembled node masses,
    /// and the global node id of each local node.
    fn from_subset(
        mesh: &HexMesh,
        order: usize,
        elems: &[u32],
        node_mass: &dyn Fn(u32) -> f64,
    ) -> (Self, Vec<u32>);
}

impl RankLocal for UnstructuredAcoustic {
    type Global = AcousticOperator;
    const COMPS: u32 = 1;
    fn global(mesh: &HexMesh, order: usize) -> AcousticOperator {
        AcousticOperator::new(mesh, order)
    }
    fn from_subset(
        mesh: &HexMesh,
        order: usize,
        elems: &[u32],
        node_mass: &dyn Fn(u32) -> f64,
    ) -> (Self, Vec<u32>) {
        UnstructuredAcoustic::from_subset(mesh, order, elems, Some(node_mass))
    }
}

impl RankLocal for UnstructuredElastic {
    type Global = ElasticOperator;
    const COMPS: u32 = 3;
    fn global(mesh: &HexMesh, order: usize) -> ElasticOperator {
        ElasticOperator::poisson(mesh, order)
    }
    fn from_subset(
        mesh: &HexMesh,
        order: usize,
        elems: &[u32],
        node_mass: &dyn Fn(u32) -> f64,
    ) -> (Self, Vec<u32>) {
        UnstructuredElastic::from_subset(mesh, order, elems, Some(node_mass))
    }
}

/// Run partitioned LTS with per-rank local memory on the acoustic SEM.
///
/// Builds the global setup and mass once (as a real code would during its
/// mesher/decomposer phase), then hands each rank only its own slice of the
/// world. Returns the assembled global `(u, v)` and per-rank statistics.
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_local_acoustic(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
) -> RunResult {
    let mut host = MetricsRegistry::new();
    run_distributed_local_acoustic_observed(
        mesh, levels, order, partition, dt, u0, v0, n_steps, cfg, sources, &mut host,
    )
}

/// [`run_distributed_local_acoustic`] recording the decomposer phases
/// (`decompose.discretize`, `decompose.build_worlds`, `run.steps`) as spans
/// in `host`, and folding every rank's registry into it so `host` ends with
/// the global counter totals.
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_local_acoustic_observed(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
    host: &mut MetricsRegistry,
) -> RunResult {
    run_distributed_local_acoustic_flight(
        mesh, levels, order, partition, dt, u0, v0, n_steps, cfg, sources, host,
    )
    .0
}

/// [`run_distributed_local_acoustic_observed`] that additionally returns
/// every rank's drained flight-recorder ring. Recordings come back on the
/// `Err` side too — that is the whole point: they are the crash-report
/// material when a rank dies mid-run (the error is the lowest failed
/// rank's, matching the non-flight variants).
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_local_acoustic_flight(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
    host: &mut MetricsRegistry,
) -> (RunResult, Vec<RankRecording>) {
    run_local::<UnstructuredAcoustic>(
        mesh, levels, order, partition, dt, u0, v0, n_steps, cfg, sources, host,
    )
}

/// [`run_distributed_local_acoustic`] for the elastic operator: local node
/// numbering with three interleaved components per node.
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_local_elastic(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
) -> RunResult {
    let mut host = MetricsRegistry::new();
    run_distributed_local_elastic_observed(
        mesh, levels, order, partition, dt, u0, v0, n_steps, cfg, sources, &mut host,
    )
}

/// [`run_distributed_local_elastic`] with decomposer-phase spans and global
/// counter totals recorded into `host` (see the acoustic observed variant).
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_local_elastic_observed(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
    host: &mut MetricsRegistry,
) -> RunResult {
    run_distributed_local_elastic_flight(
        mesh, levels, order, partition, dt, u0, v0, n_steps, cfg, sources, host,
    )
    .0
}

/// [`run_distributed_local_elastic_observed`] returning the flight-recorder
/// rings alongside the result (see the acoustic flight variant).
#[allow(clippy::too_many_arguments)]
pub fn run_distributed_local_elastic_flight(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
    host: &mut MetricsRegistry,
) -> (RunResult, Vec<RankRecording>) {
    run_local::<UnstructuredElastic>(
        mesh, levels, order, partition, dt, u0, v0, n_steps, cfg, sources, host,
    )
}

/// The decomposer and runner behind every rank-local entry point.
#[allow(clippy::too_many_arguments)]
fn run_local<L: RankLocal>(
    mesh: &HexMesh,
    levels: &Levels,
    order: usize,
    partition: &[u32],
    dt: f64,
    u0: &[f64],
    v0: &[f64],
    n_steps: usize,
    cfg: &DistributedConfig,
    sources: &[Source],
    host: &mut MetricsRegistry,
) -> (RunResult, Vec<RankRecording>) {
    let n_ranks = cfg.n_ranks;
    // global discretization (mass + level sets), as the decomposer computes
    let discretize = host.start_span("decompose.discretize", None);
    let global_op = L::global(mesh, order);
    let setup = LtsSetup::new(&global_op, &levels.elem_level);
    let ndof = Operator::ndof(&global_op);
    assert_eq!(u0.len(), ndof);
    let plans = build_plans(&global_op, &setup, partition, n_ranks);
    drop(discretize);
    host.set_gauge("ndof", ndof as f64);
    host.set_gauge("n_ranks", n_ranks as f64);

    // per-rank local worlds; the global operator, set-up and plans are
    // released before stepping
    let worlds_span = host.start_span("decompose.build_worlds", None);
    let c = L::COMPS;
    let mass = global_op.mass();
    let node_mass = |g: u32| mass[(c * g) as usize];
    // each rank's elements (ascending) and every element's rank-local id
    let mut rank_elems: Vec<Vec<u32>> = vec![Vec::new(); n_ranks];
    let mut local_elem = vec![0u32; partition.len()];
    for (e, &r) in partition.iter().enumerate() {
        let mine = &mut rank_elems[r as usize];
        local_elem[e] = mine.len() as u32;
        mine.push(e as u32);
    }
    // dense global→local node table, filled and cleared per rank
    let mut local_node = vec![u32::MAX; ndof / c as usize];
    let mut ranks: Vec<LocalRank<L>> = Vec::with_capacity(n_ranks);
    for (plan, elems) in plans.into_iter().zip(&rank_elems) {
        let (op, node_of_local) = L::from_subset(mesh, order, elems, &node_mass);
        for (l, &g) in node_of_local.iter().enumerate() {
            local_node[g as usize] = l as u32;
        }
        // plans only name DOFs of the rank's own elements
        let local_dof = |g: u32| c * local_node[(g / c) as usize] + g % c;
        let global_of_local: Vec<u32> = (0..c * node_of_local.len() as u32)
            .map(|ld| c * node_of_local[(ld / c) as usize] + ld % c)
            .collect();
        let mut my_sources: Vec<Vec<(usize, u32)>> = vec![Vec::new(); setup.n_levels];
        for (si, src) in sources.iter().enumerate() {
            if local_node[(src.dof / c) as usize] != u32::MAX {
                my_sources[setup.leaf_level[src.dof as usize] as usize]
                    .push((si, local_dof(src.dof)));
            }
        }
        ranks.push(LocalRank {
            op,
            n_levels: setup.n_levels,
            dof_level: global_of_local
                .iter()
                .map(|&g| setup.dof_level[g as usize])
                .collect(),
            plan: plan.localize(local_dof, |e| local_elem[e as usize], global_of_local.len()),
            u: global_of_local.iter().map(|&g| u0[g as usize]).collect(),
            v: global_of_local.iter().map(|&g| v0[g as usize]).collect(),
            my_sources,
            global_of_local,
        });
        for &g in &node_of_local {
            local_node[g as usize] = u32::MAX;
        }
    }
    drop((setup, global_op));
    drop(worlds_span);

    let run_span = host.start_span("run.steps", None);
    let (outcomes, recordings) = run_rank_contexts_recorded(ranks, dt, n_steps, cfg, sources);
    drop(run_span);
    // the lowest failed rank's error (ID order — deterministic across runs)
    let results = match outcomes.into_iter().collect::<Result<Vec<_>, _>>() {
        Ok(results) => results,
        Err(e) => return (Err(e), recordings),
    };
    for (_, st) in &results {
        host.merge_from(&st.registry);
    }
    // assemble: the lowest owning rank provides each dof (ranks visited
    // high to low, so lower ranks overwrite)
    let mut u = vec![0.0; ndof];
    let mut v = vec![0.0; ndof];
    for ((u_local, v_local, global_of_local), _) in results.iter().rev() {
        for (l, &g) in global_of_local.iter().enumerate() {
            u[g as usize] = u_local[l];
            v[g as usize] = v_local[l];
        }
    }
    let stats = results.into_iter().map(|(_, st)| st).collect();
    (Ok((u, v, stats)), recordings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_core::LtsNewmark;
    use lts_mesh::BenchmarkMesh;
    use lts_mesh::MeshKind;
    use lts_partition::{partition_mesh, Strategy};
    use lts_sem::gll::cfl_dt_scale;

    fn serial(
        mesh: &HexMesh,
        levels: &Levels,
        order: usize,
        dt: f64,
        u0: &[f64],
        steps: usize,
        sources: &[Source],
    ) -> Vec<f64> {
        let op = AcousticOperator::new(mesh, order);
        let setup = LtsSetup::new(&op, &levels.elem_level);
        serial_uv(&op, &setup, dt, u0, steps, sources).0
    }

    #[test]
    fn local_memory_matches_serial() {
        let b = BenchmarkMesh::build(MeshKind::Trench, 600);
        let order = 2;
        let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
        let op = AcousticOperator::new(&b.mesh, order);
        let ndof = Operator::ndof(&op);
        let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.07).sin()).collect();
        let reference = serial(&b.mesh, &b.levels, order, dt, &u0, 4, &[]);

        let n_ranks = 3;
        let part = partition_mesh(&b.mesh, &b.levels, n_ranks, Strategy::ScotchP, 1);
        let cfg = DistributedConfig::new(n_ranks);
        let (u, _, stats) = run_distributed_local_acoustic(
            &b.mesh,
            &b.levels,
            order,
            &part,
            dt,
            &u0,
            &vec![0.0; ndof],
            4,
            &cfg,
            &[],
        )
        .unwrap();
        let scale = reference.iter().fold(1.0f64, |m, &x| m.max(x.abs()));
        for i in 0..ndof {
            assert!(
                (u[i] - reference[i]).abs() <= 1e-12 * scale,
                "dof {i}: {} vs {}",
                u[i],
                reference[i]
            );
        }
        assert_eq!(stats.len(), n_ranks);
    }

    /// The serial LTS-Newmark `(u, v)` after `steps` from `(u0, 0)`.
    fn serial_uv<O: Operator>(
        op: &O,
        setup: &LtsSetup,
        dt: f64,
        u0: &[f64],
        steps: usize,
        sources: &[Source],
    ) -> (Vec<f64>, Vec<f64>) {
        let mut u = u0.to_vec();
        let mut v = vec![0.0; u0.len()];
        LtsNewmark::new(op, setup, dt).run(&mut u, &mut v, 0.0, steps, sources);
        (u, v)
    }

    /// At one rank no DOF is shared, so the rank-local runtime must
    /// reproduce the serial stepper bit for bit (`u` and `v`, acoustic and
    /// elastic, with a source), and its idle exchange accounting must read
    /// `+0`, never `-0.000`.
    #[test]
    fn one_rank_matches_serial_bitwise() {
        let b = BenchmarkMesh::build(MeshKind::Trench, 400);
        let order = 3;
        let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
        let steps = 3;
        let cfg = DistributedConfig::new(1);
        let part = vec![0u32; b.mesh.n_elems()];
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let acoustic = AcousticOperator::new(&b.mesh, order);
        let elastic = ElasticOperator::poisson(&b.mesh, order);
        for is_elastic in [false, true] {
            let setup = if is_elastic {
                LtsSetup::new(&elastic, &b.levels.elem_level)
            } else {
                LtsSetup::new(&acoustic, &b.levels.elem_level)
            };
            let ndof = setup.dof_level.len();
            let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.05).sin()).collect();
            let v0 = vec![0.0; ndof];
            let src_dof = setup.leaf[0][setup.leaf[0].len() / 3];
            let srcs = vec![Source::ricker(src_dof, 0.3, 1.0, 1.0)];
            let (run, (u_ref, v_ref)) = if is_elastic {
                (
                    run_distributed_local_elastic(
                        &b.mesh, &b.levels, order, &part, dt, &u0, &v0, steps, &cfg, &srcs,
                    ),
                    serial_uv(&elastic, &setup, dt, &u0, steps, &srcs),
                )
            } else {
                (
                    run_distributed_local_acoustic(
                        &b.mesh, &b.levels, order, &part, dt, &u0, &v0, steps, &cfg, &srcs,
                    ),
                    serial_uv(&acoustic, &setup, dt, &u0, steps, &srcs),
                )
            };
            let (u, v, stats) = run.unwrap();
            assert!(bits(&u) == bits(&u_ref), "elastic={is_elastic}: u differs");
            assert!(bits(&v) == bits(&v_ref), "elastic={is_elastic}: v differs");
            assert!(stats[0].wait_s.is_sign_positive(), "{}", stats[0].wait_s);
            let timeline = crate::stats::ascii_timeline(&stats, 40);
            assert!(!timeline.contains("-0.000"), "{timeline}");
        }
    }

    #[test]
    fn local_memory_with_sources_and_overlap() {
        let b = BenchmarkMesh::build(MeshKind::Embedding, 500);
        let order = 2;
        let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
        let op = AcousticOperator::new(&b.mesh, order);
        let setup = LtsSetup::new(&op, &b.levels.elem_level);
        let ndof = Operator::ndof(&op);
        let src_dof = setup.leaf[0][setup.leaf[0].len() / 3];
        let mk = || vec![Source::ricker(src_dof, 0.3, 1.0, 1.0)];
        let reference = serial(&b.mesh, &b.levels, order, dt, &vec![0.0; ndof], 5, &mk());

        let n_ranks = 4;
        let part = partition_mesh(&b.mesh, &b.levels, n_ranks, Strategy::ScotchBaseline, 2);
        let cfg = DistributedConfig {
            overlap: true,
            ..DistributedConfig::new(n_ranks)
        };
        let srcs = mk();
        let (u, _, _) = run_distributed_local_acoustic(
            &b.mesh,
            &b.levels,
            order,
            &part,
            dt,
            &vec![0.0; ndof],
            &vec![0.0; ndof],
            5,
            &cfg,
            &srcs,
        )
        .unwrap();
        let scale = reference.iter().fold(1e-30f64, |m, &x| m.max(x.abs()));
        for i in 0..ndof {
            assert!(
                (u[i] - reference[i]).abs() <= 1e-11 * scale,
                "dof {i}: {} vs {}",
                u[i],
                reference[i]
            );
        }
    }

    #[test]
    fn local_memory_elastic_matches_serial() {
        let b = BenchmarkMesh::build(MeshKind::Trench, 400);
        let order = 2;
        let dt = b.levels.dt_global * cfl_dt_scale(order, 3);
        let op = lts_sem::ElasticOperator::poisson(&b.mesh, order);
        let setup = LtsSetup::new(&op, &b.levels.elem_level);
        let ndof = Operator::ndof(&op);
        let u0: Vec<f64> = (0..ndof).map(|i| ((i as f64) * 0.05).sin()).collect();
        let (u_ref, _) = serial_uv(&op, &setup, dt, &u0, 3, &[]);

        let n_ranks = 3;
        let part = partition_mesh(&b.mesh, &b.levels, n_ranks, Strategy::ScotchP, 1);
        let cfg = DistributedConfig::new(n_ranks);
        let (u, _, _) = run_distributed_local_elastic(
            &b.mesh,
            &b.levels,
            order,
            &part,
            dt,
            &u0,
            &vec![0.0; ndof],
            3,
            &cfg,
            &[],
        )
        .unwrap();
        let scale = u_ref.iter().fold(1.0f64, |m, &x| m.max(x.abs()));
        for i in 0..ndof {
            assert!(
                (u[i] - u_ref[i]).abs() <= 1e-12 * scale,
                "dof {i}: {} vs {}",
                u[i],
                u_ref[i]
            );
        }
    }

    #[test]
    fn rank_memory_is_local() {
        // the per-rank DOF count must be ≈ ndof/k + surface, far below ndof
        let b = BenchmarkMesh::build(MeshKind::Crust, 1_500);
        let order = 2;
        let op = AcousticOperator::new(&b.mesh, order);
        let ndof = Operator::ndof(&op);
        let n_ranks = 8;
        let part = partition_mesh(&b.mesh, &b.levels, n_ranks, Strategy::ScotchP, 1);
        for rank in 0..n_ranks as u32 {
            let mine: Vec<u32> = (0..b.mesh.n_elems() as u32)
                .filter(|&e| part[e as usize] == rank)
                .collect();
            let (local, map) = UnstructuredAcoustic::from_subset(&b.mesh, order, &mine, None);
            assert!(
                lts_core::DofTopology::n_dofs(&local) < ndof / 4,
                "rank {rank}: {} local dofs of {} global",
                map.len(),
                ndof
            );
        }
    }
}
