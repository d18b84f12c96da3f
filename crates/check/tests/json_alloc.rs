//! What a parsed document costs the allocator: the node vector's growth,
//! not a block per container. A counting global allocator tallies this
//! thread's calls.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xdmod_check::{json, FederationModel};

struct Counting;

/// This thread's allocator calls.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Tally {
    /// `alloc`s: new blocks.
    fresh: u64,
    /// `realloc`s: a block grown (or moved) in place of the old one.
    grown: u64,
    /// `dealloc`s.
    freed: u64,
}

impl Tally {
    /// Allocations of either kind.
    fn allocs(self) -> u64 {
        self.fresh + self.grown
    }

    /// Blocks made and not yet freed.
    fn live(self) -> u64 {
        self.fresh - self.freed
    }
}

thread_local! {
    static CALLS: Cell<Tally> = const {
        Cell::new(Tally { fresh: 0, grown: 0, freed: 0 })
    };
}

fn tally(f: impl FnOnce(&mut Tally)) {
    let _ = CALLS.try_with(|c| {
        let mut t = c.get();
        f(&mut t);
        c.set(t);
    });
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(|t| t.fresh += 1);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(|t| t.freed += 1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(|t| t.grown += 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// This thread's allocator calls during `f`, and its result.
fn calls<T>(f: impl FnOnce() -> T) -> (Tally, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    let after = CALLS.with(Cell::get);
    let tally = Tally {
        fresh: after.fresh - before.fresh,
        grown: after.grown - before.grown,
        freed: after.freed - before.freed,
    };
    (tally, out)
}

#[test]
fn a_document_is_one_growing_vector() {
    let text = common::topology(300);
    assert!(text.len() > 250_000 && !text.contains('\\'));
    let (parse, doc) = calls(|| json::parse(&text).unwrap());
    // The node vector doubles from empty: one allocation and about
    // log2(nodes) reallocations. The tree this replaced made ~6,600.
    assert!(parse.allocs() <= 24, "{parse:?}");
    assert_eq!((parse.fresh, parse.freed), (1, 0));
    assert_eq!(
        doc.get("satellites")
            .and_then(|s| s.as_array())
            .map(|s| s.len()),
        Some(300)
    );
    // Dropping it frees what the parse left live: the one vector.
    let (dropped, ()) = calls(|| drop(doc));
    assert_eq!(dropped.allocs(), 0);
    assert_eq!(dropped.freed, parse.live());
}

#[test]
fn reading_a_document_allocates_nothing() {
    let text = common::topology(30);
    let doc = json::parse(&text).unwrap();
    let (read, names) = calls(|| {
        let satellites = doc.get("satellites").and_then(|s| s.as_array()).unwrap();
        satellites
            .filter_map(|s| s.get("name").and_then(|n| n.as_str()))
            .map(str::len)
            .sum::<usize>()
    });
    assert_eq!(read, Tally::default());
    assert_eq!(names, 30 * "site-000".len());
}

#[test]
fn escaped_strings_are_the_only_other_blocks() {
    let text = r#"{"plain": "a", "escaped": ["b\n", "cé", "d"], "k\"ey": 1}"#;
    let (parse, doc) = calls(|| json::parse(text).unwrap());
    // The nodes, the list of decoded strings, and the two of them.
    assert_eq!((parse.live(), parse.freed), (4, 0), "{parse:?}");
    let (dropped, ()) = calls(|| drop(doc));
    assert_eq!(dropped.freed, parse.live());
}

#[test]
fn building_the_model_allocates_no_more_than_it_did() {
    let text = common::topology(300);
    let (build, model) = calls(|| FederationModel::from_json(&text).unwrap());
    // The tape, one block per owned string and list of the model, and
    // the tape freed at the end: 12,890 blocks, 13 reallocations and 1
    // free before fields were found in one walk per object; 5,716
    // blocks once satellites shared their predecessor's equal tables
    // instead of building the two again.
    assert!(build.allocs() <= 5_729, "{build:?}");
    assert!(build.freed <= 1, "{build:?}");
    assert_eq!(model.satellites.len(), 300);
    // Every block the build left is the model's, and a shared table is
    // freed once: the drop frees exactly those.
    let (dropped, ()) = calls(|| drop(model));
    assert_eq!(dropped.allocs(), 0, "{dropped:?}");
    assert_eq!(dropped.freed, build.live(), "{dropped:?}");
}

#[test]
fn a_fields_walk_allocates_nothing() {
    let text = common::topology(30);
    let doc = json::parse(&text).unwrap();
    let (read, found) = calls(|| {
        let satellites = doc.get("satellites").and_then(|s| s.as_array()).unwrap();
        satellites
            .map(|s| s.fields(["su_factors", "name", "absent", "tables"]))
            .map(|found| found.iter().flatten().count())
            .sum::<usize>()
    });
    assert_eq!(read, Tally::default());
    assert_eq!(found, 30 * 3);
}
