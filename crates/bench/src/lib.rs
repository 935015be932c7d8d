//! Benchmark and table-regeneration harness for the Jaaru reproduction.
//!
//! One target per paper table/figure (see DESIGN.md's experiment index):
//!
//! | target | regenerates |
//! |---|---|
//! | `--bin table1` | Table 1 (x86-TSO reordering matrix) |
//! | `--bin table_pmdk_bugs` | Figure 12/16 (PMDK bugs) |
//! | `--bin table_recipe_bugs` | Figure 13/15 (RECIPE bugs) + tool comparison |
//! | `--bin figure14` | Figure 14 (Jaaru vs Yat state-space reduction) |
//! | `--bin scaling` | §1/§3.2 lazy-vs-eager scaling series |
//! | `--bench overhead` | §5.2 instrumentation overhead (the 736× claim) |
//! | `--bench lazy_vs_eager` | checking-time scaling, Jaaru vs eager |
//! | `--bench exploration` | exploration micro-costs and ablations |

pub mod registry;
pub mod table;
pub mod timing;
