//! One module per figure of the paper's evaluation (§V).
//!
//! Every `run()` returns the [`crate::harness::Table`]s that regenerate
//! the figure's series; the `repro` binary emits them.

pub mod chaos;
pub mod churn;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod replication;
pub mod scale;
pub mod shard;

use crate::harness::Table;

/// One figure: its `repro` id, paired with the function regenerating
/// its tables.
pub(crate) type Figure = (&'static str, fn() -> Vec<Table>);

/// Every figure in paper order, then the `churn`, `chaos`, `scale`,
/// `shard`, and `replication` extension tables. `repro all`,
/// `repro <id>`, `--help`, and the unknown-id check all read this list.
pub(crate) static FIGURES: [Figure; 14] = [
    ("fig1", fig1::run),
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("churn", churn::run),
    ("chaos", chaos::run),
    ("scale", scale::run),
    ("shard", shard::run),
    ("replication", replication::run),
];

/// The ids of [`FIGURES`], in order.
pub(crate) fn ids() -> Vec<&'static str> {
    FIGURES.iter().map(|f| f.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_ids_are_unique() {
        let ids = ids();
        for (i, id) in ids.iter().enumerate() {
            assert!(!ids[..i].contains(id), "{id} listed twice");
        }
    }
}
