//! The NoC hot path allocates nothing in steady state.
//!
//! A counting global allocator wraps the system allocator; for each of two
//! loaded cells (the 4x8 `paper_load` cell and a 16x16 torus) the test
//! warms a full simulation up, then counts heap allocations over further
//! cycles: a whole `System::step` may allocate a little (transactions enter
//! hash maps, MSHR waiter lists are handed out), `Network::tick` — replayed
//! on a standalone network at the injection rate the cell showed — not at
//! all.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use noclat_repro::noc::{flits_for_payload, Network, Priority, Topology, TrafficPattern, VNet};
use noclat_repro::sim::rng::SimRng;
use noclat_repro::workloads::workload;
use noclat_repro::{Simulation, SystemConfig, TopologyOverride};

struct Counting;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter without a destructor, which
// neither allocates nor touches the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `SystemAlloc` with this `layout`.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and growing reallocations) this thread makes inside `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Heap allocations a whole `System::step` may make per cycle on a loaded
/// cell, for every packet the cell injects per cycle. What is left are a
/// few per *transaction* — MSHR waiter lists handed out at a fill,
/// controller completions, hash-map growth — 0.529 per packet on
/// `paper_load` and 0.539 on the torus (2.05 and 7.00 per cycle, debug and
/// release alike; 0.528 and 0.538 while the deferred work sat in a binary
/// heap), so the bound is 0.6, about 11 % above the larger. The parent of
/// the change that introduced this test made 285 and 1 758 per cycle (73
/// and 135 per packet): every router holding a flit allocated its
/// candidate lists and cloned its output, and every delivery re-grew an
/// inbox.
const STEP_ALLOCATIONS_PER_PACKET: f64 = 0.6;

/// Warms `cfg` up under workload 2, checks the whole-step bound over
/// `cycles` more, then replays the cell's injection rate on a standalone
/// network and checks that `Network::tick` allocates nothing.
fn check_cell(cfg: SystemConfig, warmup: u64, cycles: u64) {
    let apps = workload(2).apps_for(cfg.num_cores());
    let mut sim = Simulation::builder(cfg.clone())
        .workload(&apps)
        .build()
        .expect("valid configuration");
    sim.warm_up(warmup);
    let before = sim.system().network_stats().packets_injected.get();
    let in_step = allocations_in(|| sim.run(cycles));
    let packets = sim.system().network_stats().packets_injected.get() - before;
    assert!(
        packets > cycles,
        "the cell is not loaded: {packets} packets"
    );
    let bound = STEP_ALLOCATIONS_PER_PACKET * packets as f64 / cycles as f64;
    let per_cycle = in_step as f64 / cycles as f64;
    assert!(
        per_cycle <= bound,
        "System::step allocates {per_cycle:.2} times per cycle (bound {bound:.2})"
    );

    let topo = Topology::from_config(&cfg.topology);
    let rate = packets as f64 / (cycles as f64 * topo.num_nodes() as f64);
    let data_flits = flits_for_payload(cfg.l2.line_bytes, cfg.noc.flit_bits);
    let pattern = TrafficPattern::CornerHotspot { percent: 30 };
    let mut rng = SimRng::new(cfg.seed);
    let mut net: Network<()> = Network::new(topo, cfg.noc);
    let mut mail = Vec::new();
    let (mut sent, mut in_tick, mut hops) = (0u64, 0u64, 0u64);
    for now in 0..warmup + cycles {
        for node in topo.nodes() {
            if rng.chance(rate) {
                let dest = pattern.destination(topo, node, &mut rng);
                let (vnet, flits) = if sent.is_multiple_of(2) {
                    (VNet::Request, 1)
                } else {
                    (VNet::Response, data_flits)
                };
                sent += 1;
                net.inject(node, dest, vnet, Priority::Normal, flits, 0, (), now)
                    .expect("synthetic injection is admissible");
            }
        }
        if now < warmup {
            net.tick(now);
        } else {
            let before = net.flits_traversed();
            in_tick += allocations_in(|| net.tick(now));
            hops += net.flits_traversed() - before;
        }
        net.drain_delivered(&mut mail);
        mail.clear();
    }
    assert!(hops > cycles, "the replay is not loaded: {hops} flit-hops");
    assert_eq!(
        in_tick, 0,
        "Network::tick allocated {in_tick} times in {cycles} loaded cycles"
    );
}

#[test]
fn paper_load_cell_allocates_nothing_in_the_network() {
    check_cell(
        SystemConfig::baseline_32().with_both_schemes(),
        4_000,
        1_000,
    );
}

#[test]
fn torus_16x16_cell_allocates_nothing_in_the_network() {
    let mut cfg = SystemConfig::baseline_256().with_both_schemes();
    TopologyOverride::parse("torus")
        .expect("torus is a known fabric")
        .apply(&mut cfg);
    check_cell(cfg, 1_500, 300);
}
