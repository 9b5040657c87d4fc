//! The timed access path allocates nothing: once a machine's buffers
//! have grown on a first pass over a trace, a second pass over the same
//! trace performs zero heap allocations. The whole Figure 6 path is
//! covered — TLBs, the three cache levels with their inline writeback
//! and prefetch lists, the OMT cache, DRAM and, with four cores, the
//! scheduler and the contention models.
//!
//! The counting allocator counts only the calling thread's allocations,
//! so the test harness's other threads never disturb a count.

use page_overlays::sim::{Machine, SystemConfig, TraceOp};
use page_overlays::types::geometry::{LINES_PER_PAGE, LINE_SIZE, PAGE_SIZE};
use page_overlays::types::{Asid, VirtAddr, Vpn};
use page_overlays::workloads::spec_suite;
use po_mc::{build_core_streams, run_interleaved, ContendedForkSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the heap allocations (including
/// reallocations) this thread made meanwhile.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// One fork-suite benchmark under `config`: the parent maps its pages,
/// runs its warm-up, forks, and runs the post-fork trace once (the warm
/// pass). Returns the machine, the parent and the post-fork trace.
fn forked_machine(config: SystemConfig, name: &str) -> (Machine, Asid, Vec<TraceOp>) {
    let (warmup_instr, post_instr, seed) = (40_000, 60_000, 42);
    let spec = spec_suite().into_iter().find(|s| s.name == name).expect("suite benchmark");
    let warmup = spec.generate_warmup(warmup_instr, seed);
    let post = spec.generate_post_fork(post_instr, seed);
    let mut m = Machine::new(config).expect("machine");
    let parent = m.spawn_process().expect("spawn");
    m.map_range(parent, spec.base_vpn(), spec.mapped_pages(warmup_instr.max(post_instr)))
        .expect("map");
    for op in &warmup {
        m.execute(parent, op).expect("warm-up op");
    }
    m.fork(parent).expect("fork");
    for op in &post {
        m.execute(parent, op).expect("warm pass op");
    }
    (m, parent, post)
}

fn assert_second_pass_allocates_nothing(config: SystemConfig, mode: &str) {
    // A pointer chaser, a streaming kernel and a mixed one: misses,
    // stream prefetches, dirty writebacks and overlay-aware prefetches.
    for name in ["mcf", "lbm", "bzip2"] {
        let (mut m, parent, post) = forked_machine(config.clone(), name);
        let ((), allocs) = allocs_during(|| {
            for op in &post {
                m.execute(parent, op).expect("second pass op");
            }
        });
        assert_eq!(allocs, 0, "{mode} {name}: {} timed ops allocated {allocs} times", post.len());
    }
}

#[test]
fn overlay_on_write_fork_trace_allocates_nothing() {
    assert_second_pass_allocates_nothing(SystemConfig::table2_overlay(), "overlay-on-write");
}

#[test]
fn copy_on_write_fork_trace_allocates_nothing() {
    assert_second_pass_allocates_nothing(SystemConfig::table2(), "copy-on-write");
}

#[test]
fn four_core_contended_schedule_allocates_nothing() {
    let spec = ContendedForkSpec { ops_per_core: 1500, ..ContendedForkSpec::standard(4, 42) };
    let mut m =
        Machine::new(SystemConfig { cores: 4, ..SystemConfig::table2_overlay() }).expect("machine");
    let parent = m.spawn_process().expect("spawn");
    m.map_range(parent, Vpn::new(spec.base_vpn), spec.pages).expect("map");
    // The contended-fork set-up: core 0 writes every shared line, forks.
    for page in 0..spec.pages {
        for line in 0..LINES_PER_PAGE {
            let va = VirtAddr::new(
                (spec.base_vpn + page) * PAGE_SIZE as u64 + (line * LINE_SIZE) as u64,
            );
            m.execute_at_core(0, parent, &TraceOp::Store(va)).expect("warm-up store");
        }
    }
    m.fork(parent).expect("fork");
    let streams = build_core_streams(&spec);
    run_interleaved(&mut m, parent, &streams, spec.quantum_ops).expect("warm pass");

    // The scheduler's own bookkeeping (cursors, per-core lanes) is a
    // fixed cost per call, measured on empty streams; every op beyond
    // it must allocate nothing.
    let idle = vec![Vec::new(); streams.len()];
    let (_, fixed) = allocs_during(|| run_interleaved(&mut m, parent, &idle, spec.quantum_ops));
    let (sched, allocs) =
        allocs_during(|| run_interleaved(&mut m, parent, &streams, spec.quantum_ops));
    let ops: u64 = sched.expect("second pass").per_core.iter().map(|l| l.ops_applied).sum();
    assert_eq!(ops, 4 * spec.ops_per_core as u64);
    assert_eq!(allocs - fixed, 0, "{ops} scheduled ops allocated {} times", allocs - fixed);
}
