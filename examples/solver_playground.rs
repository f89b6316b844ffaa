//! The LP/MILP substrate, stand-alone: build one chunk's ConFL MILP,
//! dump it in LP format, solve it with the bundled branch-and-bound,
//! and compare against the brute-force enumerator.
//!
//! This is the machinery that replaces the paper's PuLP brute force —
//! useful on its own whenever a small MILP needs solving without
//! external bindings.
//!
//! Run with: `cargo run --example solver_playground`

use peercache::costs::CostWeights;
use peercache::exact::{best_facility_set, solve_chunk_milp};
use peercache::instance::ConflInstance;
use peercache::lp::{solve_milp, Model, Relation, Sense};
use peercache::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Part 1: a tiny standalone MILP through the public solver API.
    println!("== standalone MILP ==");
    let mut m = Model::new(Sense::Maximize);
    let chunks = m.add_integer_var("chunks", 0.0, 10.0, 3.0);
    let copies = m.add_integer_var("copies", 0.0, 10.0, 2.0);
    m.add_constraint(vec![(chunks, 2.0), (copies, 1.0)], Relation::Le, 11.0);
    m.add_constraint(vec![(chunks, 1.0), (copies, 3.0)], Relation::Le, 14.0);
    println!("{}", m.to_lp_format());
    let sol = solve_milp(&m, &Default::default())?;
    println!(
        "optimum {} at chunks={}, copies={}\n",
        sol.objective,
        sol.value(chunks),
        sol.value(copies)
    );

    // Part 2: one chunk of the caching problem as a certified MILP.
    println!("== one-chunk ConFL on a 2x3 grid ==");
    let net = Network::new(builders::grid(2, 3), NodeId::new(0), 2)?;
    let inst = ConflInstance::build(&net, CostWeights::default())?;

    let (milp_set, milp_obj) = solve_chunk_milp(&net, &inst)?;
    println!(
        "MILP optimum: open {:?}, objective {milp_obj:.2}",
        milp_set.iter().map(|n| n.index()).collect::<Vec<_>>()
    );

    let brtf_set = best_facility_set(&net, &inst, 20)?;
    let (brtf_costs, _, _) = inst.evaluate_set(&net, &brtf_set)?;
    println!(
        "enumeration:  open {:?}, objective {:.2} (tree is 2-approximate)",
        brtf_set.iter().map(|n| n.index()).collect::<Vec<_>>(),
        brtf_costs.total()
    );
    assert!(milp_obj <= brtf_costs.total() + 1e-6);
    println!("\nthe certified MILP lower-bounds the practical enumerator, as it must");
    Ok(())
}
