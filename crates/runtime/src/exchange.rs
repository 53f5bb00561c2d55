//! Exchange plans: which DOFs' partial forces must be assembled across which
//! rank pairs at each LTS level.
//!
//! A DOF's *rank set* is every rank owning an element containing it. After a
//! masked product at level `l`, all DOFs in `touched[l]` with two or more
//! ranks exchange partials among their rank set and re-assemble the total in
//! ascending-rank order — making every rank's copy bitwise identical.

use lts_core::{DofTopology, LtsSetup};

/// Marks this rank's own partial in [`SharedDofs::slots`].
pub const OWN: u32 = u32::MAX;

/// One level's shared DOFs of a rank, flat. Entry `(d, lo, hi)` of `dofs`
/// is a shared DOF `d` (ascending) whose full ascending rank set is
/// `ranks[lo..hi]`; `slots[lo..hi]` names, for each of those ranks, its
/// index in the level's [`RankPlan::peers`] (or [`OWN`] for this rank), so
/// assembly never searches for a peer.
#[derive(Debug, Clone, Default)]
pub struct SharedDofs {
    pub dofs: Vec<(u32, u32, u32)>,
    pub ranks: Vec<u32>,
    pub slots: Vec<u32>,
}

impl SharedDofs {
    fn push(&mut self, dof: u32, ranks: &[u32]) {
        let lo = self.ranks.len() as u32;
        self.ranks.extend_from_slice(ranks);
        self.dofs.push((dof, lo, self.ranks.len() as u32));
    }

    /// The same entries with every DOF renumbered through `dof`.
    fn map_dofs(&self, dof: impl Fn(u32) -> u32) -> SharedDofs {
        SharedDofs {
            dofs: self
                .dofs
                .iter()
                .map(|&(d, lo, hi)| (dof(d), lo, hi))
                .collect(),
            ranks: self.ranks.clone(),
            slots: self.slots.clone(),
        }
    }
}

/// Exchange plan of one rank.
#[derive(Debug, Clone, Default)]
pub struct RankPlan {
    /// Elements this rank owns, intersected with `setup.elems[l]`.
    pub my_elems: Vec<Vec<u32>>,
    /// `my_elems[l]` split for communication overlap: elements touching a
    /// shared DOF (their contributions must be computed before the sends)…
    pub my_boundary_elems: Vec<Vec<u32>>,
    /// …and the rest, computable while messages are in flight.
    pub my_interior_elems: Vec<Vec<u32>>,
    /// `setup.touched[l] ∩ my_dofs` — force-buffer entries to zero.
    pub my_zero: Vec<Vec<u32>>,
    /// `setup.active[l] ∩ my_dofs`.
    pub my_active: Vec<Vec<u32>>,
    /// `setup.leaf[l] ∩ my_dofs`.
    pub my_leaf: Vec<Vec<u32>>,
    /// All DOFs of owned elements.
    pub my_dofs: Vec<u32>,
    /// Per level: peers this rank exchanges with (sorted).
    pub peers: Vec<Vec<usize>>,
    /// Per level, aligned with `peers`: the ascending DOF list sent to (and
    /// received from) that peer.
    pub pair_dofs: Vec<Vec<Vec<u32>>>,
    /// Per level: all shared DOFs of this rank with their rank sets.
    pub shared: Vec<SharedDofs>,
}

impl RankPlan {
    fn empty(n_levels: usize) -> Self {
        RankPlan {
            my_elems: vec![Vec::new(); n_levels],
            my_boundary_elems: vec![Vec::new(); n_levels],
            my_interior_elems: vec![Vec::new(); n_levels],
            my_zero: vec![Vec::new(); n_levels],
            my_active: vec![Vec::new(); n_levels],
            my_leaf: vec![Vec::new(); n_levels],
            my_dofs: Vec::new(),
            peers: vec![Vec::new(); n_levels],
            pair_dofs: vec![Vec::new(); n_levels],
            shared: vec![SharedDofs::default(); n_levels],
        }
    }

    /// This plan in a rank-local index space: DOFs renumbered through
    /// `dof`, elements through `elem`, and `my_dofs` = `0..n_local_dofs`
    /// (the local numbering covers exactly the owned DOFs). Peers, rank
    /// sets and every list order are unchanged.
    pub fn localize(
        &self,
        dof: impl Fn(u32) -> u32,
        elem: impl Fn(u32) -> u32,
        n_local_dofs: usize,
    ) -> RankPlan {
        let map = |lists: &[Vec<u32>], f: &dyn Fn(u32) -> u32| -> Vec<Vec<u32>> {
            lists
                .iter()
                .map(|l| l.iter().map(|&x| f(x)).collect())
                .collect()
        };
        RankPlan {
            my_elems: map(&self.my_elems, &elem),
            my_boundary_elems: map(&self.my_boundary_elems, &elem),
            my_interior_elems: map(&self.my_interior_elems, &elem),
            my_zero: map(&self.my_zero, &dof),
            my_active: map(&self.my_active, &dof),
            my_leaf: map(&self.my_leaf, &dof),
            my_dofs: (0..n_local_dofs as u32).collect(),
            peers: self.peers.clone(),
            pair_dofs: self
                .pair_dofs
                .iter()
                .map(|per_peer| map(per_peer, &dof))
                .collect(),
            shared: self.shared.iter().map(|s| s.map_dofs(&dof)).collect(),
        }
    }
}

/// Every DOF's ascending rank set, flat: DOF `d`'s set is
/// `ranks[start[d]..start[d + 1]]`.
struct RankSets {
    start: Vec<u32>,
    ranks: Vec<u32>,
}

impl RankSets {
    /// Two passes over the elements, visited rank by rank so each DOF
    /// meets its ranks in ascending order: count the distinct ranks per
    /// DOF, then fill.
    fn new<T: DofTopology>(topo: &T, partition: &[u32]) -> Self {
        let ndof = topo.n_dofs();
        let mut by_rank: Vec<u32> = (0..partition.len() as u32).collect();
        by_rank.sort_by_key(|&e| partition[e as usize]);
        let mut start = vec![0u32; ndof + 1];
        let mut last = vec![u32::MAX; ndof];
        let mut dofs = Vec::new();
        for &e in &by_rank {
            let r = partition[e as usize];
            topo.elem_dofs(e, &mut dofs);
            for &d in &dofs {
                if last[d as usize] != r {
                    last[d as usize] = r;
                    start[d as usize + 1] += 1;
                }
            }
        }
        for d in 0..ndof {
            start[d + 1] += start[d];
        }
        let mut ranks = vec![0u32; start[ndof] as usize];
        // `last` becomes each DOF's fill cursor
        last.copy_from_slice(&start[..ndof]);
        for &e in &by_rank {
            let r = partition[e as usize];
            topo.elem_dofs(e, &mut dofs);
            for &d in &dofs {
                let c = last[d as usize];
                if c == start[d as usize] || ranks[c as usize - 1] != r {
                    ranks[c as usize] = r;
                    last[d as usize] = c + 1;
                }
            }
        }
        RankSets { start, ranks }
    }

    fn of(&self, d: u32) -> &[u32] {
        &self.ranks[self.start[d as usize] as usize..self.start[d as usize + 1] as usize]
    }
}

/// Build the per-rank plans for a partition.
pub fn build_plans<T: DofTopology>(
    topo: &T,
    setup: &LtsSetup,
    partition: &[u32],
    n_ranks: usize,
) -> Vec<RankPlan> {
    assert_eq!(partition.len(), topo.n_elems());
    assert!(n_ranks >= 1);
    assert!(partition.iter().all(|&p| (p as usize) < n_ranks));
    let ndof = topo.n_dofs();
    let sets = RankSets::new(topo, partition);
    let mut plans: Vec<RankPlan> = (0..n_ranks)
        .map(|_| RankPlan::empty(setup.n_levels))
        .collect();

    for d in 0..ndof as u32 {
        for &r in sets.of(d) {
            plans[r as usize].my_dofs.push(d);
        }
    }
    // per-level element lists, split boundary/interior for overlap
    let mut dofs = Vec::new();
    for (l, elems_l) in setup.elems.iter().enumerate() {
        for &e in elems_l {
            let plan = &mut plans[partition[e as usize] as usize];
            plan.my_elems[l].push(e);
            topo.elem_dofs(e, &mut dofs);
            if dofs.iter().any(|&d| sets.of(d).len() >= 2) {
                plan.my_boundary_elems[l].push(e);
            } else {
                plan.my_interior_elems[l].push(e);
            }
        }
    }
    for l in 0..setup.n_levels {
        for &d in &setup.touched[l] {
            for &r in sets.of(d) {
                plans[r as usize].my_zero[l].push(d);
            }
        }
        for &d in &setup.active[l] {
            for &r in sets.of(d) {
                plans[r as usize].my_active[l].push(d);
            }
        }
        for &d in &setup.leaf[l] {
            for &r in sets.of(d) {
                plans[r as usize].my_leaf[l].push(d);
            }
        }
        // shared dofs and pair lists (ascending dof order by construction)
        for &d in &setup.touched[l] {
            let ranks = sets.of(d);
            if ranks.len() < 2 {
                continue;
            }
            for &r in ranks {
                let plan = &mut plans[r as usize];
                plan.shared[l].push(d, ranks);
                for &p in ranks {
                    if p == r {
                        continue;
                    }
                    let pos = match plan.peers[l].binary_search(&(p as usize)) {
                        Ok(i) => i,
                        Err(i) => {
                            plan.peers[l].insert(i, p as usize);
                            plan.pair_dofs[l].insert(i, Vec::new());
                            i
                        }
                    };
                    plan.pair_dofs[l][pos].push(d);
                }
            }
        }
    }
    // peer slots, now that every peer list is complete
    for (rank, plan) in plans.iter_mut().enumerate() {
        for (shared, peers) in plan.shared.iter_mut().zip(&plan.peers) {
            shared.slots = shared
                .ranks
                .iter()
                .map(|&r| {
                    if r as usize == rank {
                        OWN
                    } else {
                        // every other rank of a shared set is a peer
                        peers.binary_search(&(r as usize)).unwrap_or_else(|i| i) as u32
                    }
                })
                .collect();
        }
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_core::Chain1d;

    /// `(dof, rank set)` of every shared DOF, ascending by DOF.
    fn entries(s: &SharedDofs) -> Vec<(u32, Vec<u32>)> {
        s.dofs
            .iter()
            .map(|&(d, lo, hi)| (d, s.ranks[lo as usize..hi as usize].to_vec()))
            .collect()
    }

    #[test]
    fn chain_two_ranks_share_one_dof_per_level_interface() {
        // 8 elements, uniform (single level), split 4|4 → dof 4 shared
        let c = Chain1d::uniform(8, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 8]);
        let part = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let plans = build_plans(&c, &setup, &part, 2);
        assert_eq!(plans[0].peers[0], vec![1]);
        assert_eq!(plans[1].peers[0], vec![0]);
        assert_eq!(plans[0].pair_dofs[0][0], vec![4]);
        assert_eq!(plans[1].pair_dofs[0][0], vec![4]);
        assert_eq!(entries(&plans[0].shared[0]), vec![(4, vec![0, 1])]);
        assert_eq!(plans[0].shared[0].slots, vec![OWN, 0]);
        assert_eq!(plans[1].shared[0].slots, vec![0, OWN]);
    }

    #[test]
    fn pair_lists_are_mirror_images() {
        let c = Chain1d::with_velocities(vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0], 1.0);
        let (lv, _) = c.assign_levels(0.5, 2);
        let setup = LtsSetup::new(&c, &lv);
        let part = vec![0, 0, 1, 1, 0, 0, 1, 1]; // deliberately scrambled
        let plans = build_plans(&c, &setup, &part, 2);
        for l in 0..setup.n_levels {
            for (pi, &peer) in plans[0].peers[l].iter().enumerate() {
                let back = plans[peer].peers[l].iter().position(|&x| x == 0).unwrap();
                assert_eq!(
                    plans[0].pair_dofs[l][pi], plans[peer].pair_dofs[l][back],
                    "level {l} pair lists differ"
                );
            }
        }
    }

    #[test]
    fn my_sets_partition_global_sets() {
        let c = Chain1d::uniform(10, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 10]);
        let part: Vec<u32> = (0..10).map(|e| (e / 4) as u32).collect(); // 3 ranks
        let plans = build_plans(&c, &setup, &part, 3);
        // every leaf dof is covered by at least one rank; shared dofs by several
        let mut coverage = [0usize; 11];
        for p in &plans {
            for &d in &p.my_leaf[0] {
                coverage[d as usize] += 1;
            }
        }
        assert!(coverage.iter().all(|&c| c >= 1));
        assert_eq!(coverage[4], 2); // interface dof owned by ranks 0 and 1
    }

    /// The pre-flat construction: one heap rank set per DOF, shared DOFs
    /// carrying their own rank-set copies. Kept as the equivalence oracle.
    mod oracle {
        use lts_core::{DofTopology, LtsSetup};

        pub struct Plan {
            pub my_elems: Vec<Vec<u32>>,
            pub my_boundary_elems: Vec<Vec<u32>>,
            pub my_interior_elems: Vec<Vec<u32>>,
            pub my_zero: Vec<Vec<u32>>,
            pub my_active: Vec<Vec<u32>>,
            pub my_leaf: Vec<Vec<u32>>,
            pub my_dofs: Vec<u32>,
            pub peers: Vec<Vec<usize>>,
            pub pair_dofs: Vec<Vec<Vec<u32>>>,
            pub shared: Vec<Vec<(u32, Vec<u32>)>>,
        }

        pub fn build_plans<T: DofTopology>(
            topo: &T,
            setup: &LtsSetup,
            partition: &[u32],
            n_ranks: usize,
        ) -> Vec<Plan> {
            let ndof = topo.n_dofs();
            let nl = setup.n_levels;
            let mut dof_ranks: Vec<Vec<u32>> = vec![Vec::new(); ndof];
            let mut dofs = Vec::new();
            for e in 0..topo.n_elems() as u32 {
                let r = partition[e as usize];
                topo.elem_dofs(e, &mut dofs);
                for &d in &dofs {
                    let v = &mut dof_ranks[d as usize];
                    if !v.contains(&r) {
                        v.push(r);
                    }
                }
            }
            for v in dof_ranks.iter_mut() {
                v.sort_unstable();
            }
            let mut plans: Vec<Plan> = (0..n_ranks)
                .map(|_| Plan {
                    my_elems: vec![Vec::new(); nl],
                    my_boundary_elems: vec![Vec::new(); nl],
                    my_interior_elems: vec![Vec::new(); nl],
                    my_zero: vec![Vec::new(); nl],
                    my_active: vec![Vec::new(); nl],
                    my_leaf: vec![Vec::new(); nl],
                    my_dofs: Vec::new(),
                    peers: vec![Vec::new(); nl],
                    pair_dofs: vec![Vec::new(); nl],
                    shared: vec![Vec::new(); nl],
                })
                .collect();
            for d in 0..ndof as u32 {
                for &r in &dof_ranks[d as usize] {
                    plans[r as usize].my_dofs.push(d);
                }
            }
            for (l, elems_l) in setup.elems.iter().enumerate() {
                for &e in elems_l {
                    plans[partition[e as usize] as usize].my_elems[l].push(e);
                }
            }
            for (l, elems_l) in setup.elems.iter().enumerate() {
                for &e in elems_l {
                    let r = partition[e as usize] as usize;
                    topo.elem_dofs(e, &mut dofs);
                    if dofs.iter().any(|&d| dof_ranks[d as usize].len() >= 2) {
                        plans[r].my_boundary_elems[l].push(e);
                    } else {
                        plans[r].my_interior_elems[l].push(e);
                    }
                }
            }
            for l in 0..nl {
                for &d in &setup.touched[l] {
                    for &r in &dof_ranks[d as usize] {
                        plans[r as usize].my_zero[l].push(d);
                    }
                }
                for &d in &setup.active[l] {
                    for &r in &dof_ranks[d as usize] {
                        plans[r as usize].my_active[l].push(d);
                    }
                }
                for &d in &setup.leaf[l] {
                    for &r in &dof_ranks[d as usize] {
                        plans[r as usize].my_leaf[l].push(d);
                    }
                }
                for &d in &setup.touched[l] {
                    let ranks = &dof_ranks[d as usize];
                    if ranks.len() < 2 {
                        continue;
                    }
                    for &r in ranks {
                        plans[r as usize].shared[l].push((d, ranks.clone()));
                        for &p in ranks {
                            if p == r {
                                continue;
                            }
                            let plan = &mut plans[r as usize];
                            let pos = match plan.peers[l].binary_search(&(p as usize)) {
                                Ok(i) => i,
                                Err(i) => {
                                    plan.peers[l].insert(i, p as usize);
                                    plan.pair_dofs[l].insert(i, Vec::new());
                                    i
                                }
                            };
                            plan.pair_dofs[l][pos].push(d);
                        }
                    }
                }
            }
            plans
        }
    }

    /// Field-by-field, order-sensitive equality with the oracle, plus the
    /// peer-slot invariant of the flat shared lists.
    fn assert_matches_oracle<T: DofTopology>(topo: &T, setup: &LtsSetup, part: &[u32], k: usize) {
        let new = build_plans(topo, setup, part, k);
        let old = oracle::build_plans(topo, setup, part, k);
        assert_eq!(new.len(), old.len());
        for (rank, (n, o)) in new.iter().zip(&old).enumerate() {
            assert_eq!(n.my_elems, o.my_elems, "rank {rank} my_elems");
            assert_eq!(n.my_boundary_elems, o.my_boundary_elems, "rank {rank}");
            assert_eq!(n.my_interior_elems, o.my_interior_elems, "rank {rank}");
            assert_eq!(n.my_zero, o.my_zero, "rank {rank} my_zero");
            assert_eq!(n.my_active, o.my_active, "rank {rank} my_active");
            assert_eq!(n.my_leaf, o.my_leaf, "rank {rank} my_leaf");
            assert_eq!(n.my_dofs, o.my_dofs, "rank {rank} my_dofs");
            assert_eq!(n.peers, o.peers, "rank {rank} peers");
            assert_eq!(n.pair_dofs, o.pair_dofs, "rank {rank} pair_dofs");
            assert_eq!(n.shared.len(), o.shared.len());
            for (l, (ns, os)) in n.shared.iter().zip(&o.shared).enumerate() {
                assert_eq!(&entries(ns), os, "rank {rank} level {l} shared");
                for (&r, &slot) in ns.ranks.iter().zip(&ns.slots) {
                    if r as usize == rank {
                        assert_eq!(slot, OWN);
                    } else {
                        assert_eq!(n.peers[l][slot as usize], r as usize);
                    }
                }
            }
        }
    }

    fn random_partition(n_elems: usize, k: usize, seed: u64) -> Vec<u32> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n_elems)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % k as u64) as u32
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        #[test]
        fn flat_plans_match_oracle_on_chains(
            vel in proptest::collection::vec(0.5f64..4.0, 2..40),
            k in 1usize..9,
            seed in 0u64..1_000_000,
        ) {
            let c = Chain1d::with_velocities(vel, 1.0);
            let (lv, _) = c.assign_levels(0.5, 4);
            let setup = LtsSetup::new(&c, &lv);
            let part = random_partition(c.n_elems(), k, seed);
            assert_matches_oracle(&c, &setup, &part, k);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(8))]

        #[test]
        fn flat_plans_match_oracle_on_sem_meshes(
            mesh in 0u8..2,
            order in 1usize..5,
            k in 1usize..9,
            seed in 0u64..1_000_000,
        ) {
            use lts_mesh::{BenchmarkMesh, MeshKind};
            let kind = if mesh == 0 { MeshKind::Trench } else { MeshKind::Embedding };
            let b = BenchmarkMesh::build(kind, 150);
            let part = random_partition(b.mesh.n_elems(), k, seed);
            let ac = lts_sem::AcousticOperator::new(&b.mesh, order);
            let setup = LtsSetup::new(&ac, &b.levels.elem_level);
            assert_matches_oracle(&ac, &setup, &part, k);
            let el = lts_sem::ElasticOperator::poisson(&b.mesh, order);
            let setup = LtsSetup::new(&el, &b.levels.elem_level);
            assert_matches_oracle(&el, &setup, &part, k);
        }
    }

    #[test]
    fn single_rank_has_no_peers() {
        let c = Chain1d::uniform(6, 1.0, 1.0);
        let setup = LtsSetup::new(&c, &[0u8; 6]);
        let plans = build_plans(&c, &setup, &[0; 6], 1);
        assert!(plans[0].peers[0].is_empty());
        assert_eq!(plans[0].my_elems[0].len(), 6);
        assert_eq!(plans[0].my_dofs.len(), 7);
    }
}
