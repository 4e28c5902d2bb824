//! Additional communicator coverage: strict-subset subcommunicators,
//! nested grids, collectives on tiny communicators, and work counters.

use pcomm::{CostModel, Grid, StageCost, World};

#[test]
fn subcomm_strict_subset() {
    let r = World::run(6, |comm| {
        // Everyone participates in the collective creation; only the even
        // ranks become members.
        let sub = comm.subcomm(&[0, 2, 4]);
        match sub {
            Some(s) => {
                assert_eq!(s.size(), 3);
                // Sum of world ranks inside the subgroup.
                Some(s.allreduce(comm.rank() as u64, |a, b| a + b))
            }
            None => None,
        }
    });
    assert_eq!(r, vec![Some(6), None, Some(6), None, Some(6), None]);
}

#[test]
fn nested_subcomm_grid() {
    // Build a 2×2 grid over a 4-rank subset of a 6-rank world.
    let r = World::run(6, |comm| {
        let sub = comm.subcomm(&[0, 1, 2, 3]);
        sub.map(|s| {
            let grid = Grid::new(&s);
            grid.row_comm().allreduce(s.rank() as u64, |a, b| a + b)
        })
    });
    assert_eq!(r[0], Some(1)); // row {0,1}
    assert_eq!(r[2], Some(5)); // row {2,3}
    assert_eq!(r[4], None);
}

#[test]
fn collectives_on_size_one_comm() {
    let r = World::run(3, |comm| {
        let solo = comm.subcomm(&[comm.rank()]).unwrap();
        let b = solo.bcast(0, Some(comm.rank() as u64));
        let g = solo.gather(0, b).unwrap();
        let s = solo.exscan(5u64, |a, b| a + b);
        solo.barrier();
        (b, g, s)
    });
    for (rank, (b, g, s)) in r.into_iter().enumerate() {
        assert_eq!(b, rank as u64);
        assert_eq!(g, vec![rank as u64]);
        assert_eq!(s, None);
    }
}

#[test]
fn subcomm_creation_is_repeatable() {
    // Creating several subcomms from the same parent must keep their
    // traffic separated (distinct internal ids via the split counter).
    let r = World::run(2, |comm| {
        let s1 = comm.subcomm(&[0, 1]).unwrap();
        let s2 = comm.subcomm(&[0, 1]).unwrap();
        if comm.rank() == 0 {
            s1.send(1, 4, 111u32);
            s2.send(1, 4, 222u32);
            0
        } else {
            let b = s2.recv::<u32>(0, 4);
            let a = s1.recv::<u32>(0, 4);
            assert_eq!((a, b), (111, 222));
            1
        }
    });
    assert_eq!(r[1], 1);
}

#[test]
fn work_counters_are_per_rank() {
    let r = World::run(3, |comm| {
        let before = pcomm::work::counter();
        // Each rank records a different amount.
        pcomm::work::record(comm.rank() as u64 + 1, 100);
        pcomm::work::counter() - before
    });
    assert_eq!(r, vec![100, 200, 300]);
}

#[test]
fn cost_model_orders_scaling_correctly() {
    // More bytes, same compute → more modeled time.
    let m = CostModel::default();
    let mk = |bytes: u64| StageCost {
        compute_secs: 1.0,
        comm: pcomm::CommStats {
            bytes_sent: bytes,
            ..Default::default()
        },
        colls: Vec::new(),
    };
    assert!(m.stage(&mk(1 << 30)) > m.stage(&mk(1 << 10)));
    // Compute passes through at the default scale.
    assert!((m.stage(&mk(0)) - 1.0).abs() < 1e-9);
}
