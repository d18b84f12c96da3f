//! Regenerate the paper's Fig. 2: three satellite instances fan in to a
//! federated hub over tight replication links.

use xdmod_bench::experiments::{fig2, SEED};

fn main() {
    let t = fig2(SEED, 1.0);
    println!("Fig 2 — fan-in federation of three satellites\n");
    println!("events applied at the hub: {}", t.events_applied);
    println!("\nhub's unified view (jobs per resource):");
    for (resource, jobs) in &t.hub_view {
        println!("  {resource:<14} {jobs:>7} jobs");
    }
    println!("\nchecksum verification per member:");
    for (member, ok) in &t.members_verified {
        println!(
            "  {member:<14} {}",
            if *ok { "identical ✓" } else { "MISMATCH ✗" }
        );
    }
}
