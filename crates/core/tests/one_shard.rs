//! The single machine is the one-shard case: `BetweennessState` folds every
//! update through `Update::fold_into` before its shard mutates anything,
//! counts its Brandes runs through the shard, and its exact scores check
//! that the records cover every vertex exactly once.

use ebc_core::bd::{BdStore, MemoryBdStore};
use ebc_core::incremental::UpdateConfig;
use ebc_core::shard::{Shard, ShardState};
use ebc_core::state::{BetweennessState, Update};
use ebc_core::verify::{self, Divergence};
use ebc_core::{Error, ErrorKind};
use ebc_graph::{Graph, GraphError};

fn path3() -> Graph {
    let mut g = Graph::with_vertices(3);
    g.add_edge(0, 1).unwrap();
    g.add_edge(1, 2).unwrap();
    g
}

/// What a session's `verify` runs: the exact scores, then the check.
fn verify_state(st: &mut BetweennessState) -> Result<Divergence, Error> {
    let exact = st.exact_scores()?;
    verify::check(st.graph(), &exact, 1e-6)
}

fn is_short_cover(e: &Error) -> bool {
    e.kind() == ErrorKind::Corrupt && e.context().contains("exact sum covers 2 sources")
}

#[test]
fn a_self_loop_on_the_arriving_vertex_leaves_no_trace() {
    let mut st = BetweennessState::new(&path3());
    assert_eq!(
        st.apply(Update::add(3, 3)).unwrap_err().graph_error(),
        Some(GraphError::SelfLoop(3))
    );
    assert_eq!(
        (st.graph().n(), st.store().n(), st.brandes_runs()),
        (3, 3, 3)
    );
    // vertex 3 then arrives properly, with its record and one Brandes run
    st.apply(Update::add(0, 3)).unwrap();
    assert_eq!((st.store().num_sources(), st.brandes_runs()), (4, 4));
    verify_state(&mut st).unwrap();
}

#[test]
fn a_missing_record_is_corrupt_not_short_scores() {
    let mut st = BetweennessState::new(&path3());
    st.store_mut().remove_source(1).unwrap();
    match st.exact_scores() {
        Err(e) => assert!(is_short_cover(&e), "{e}"),
        Ok(_) => panic!("a store missing source 1 summed"),
    }
    match verify_state(&mut st) {
        Err(e) => assert!(is_short_cover(&e), "{e}"),
        Ok(_) => panic!("a store missing source 1 verified"),
    }
}

#[test]
fn resume_refuses_a_store_missing_a_record() {
    let g = path3();
    let mut shard = ShardState::new(MemoryBdStore::new(3), g.clone(), Default::default());
    shard.bootstrap(&[0, 2]).unwrap();
    match BetweennessState::resume(g, shard.into_store(), UpdateConfig::default()) {
        Err(e) => assert!(is_short_cover(&e), "{e}"),
        Ok(_) => panic!("a store missing source 1 resumed"),
    }
}
