//! One module per figure of the paper's evaluation (§V).
//!
//! Every `run()` returns the [`crate::harness::Table`]s that regenerate
//! the figure's series; the `repro` binary emits them.

pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;

use crate::harness::Table;

/// One figure: its `repro` id, paired with the function regenerating
/// its tables.
pub(crate) type Figure = (&'static str, fn() -> Vec<Table>);

/// Every figure in paper order. `repro` runs these ids, then the
/// baseline stems of [`crate::perf::BASELINES`].
pub(crate) static FIGURES: [Figure; 9] = [
    ("fig1", fig1::run),
    ("fig2", fig2::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_ids_are_unique() {
        let stems: Vec<&str> = crate::perf::BASELINES
            .iter()
            .map(|b| crate::perf::stem(b.0))
            .collect();
        for (i, (id, _)) in FIGURES.iter().enumerate() {
            assert!(FIGURES[..i].iter().all(|f| f.0 != *id), "{id} listed twice");
            assert!(!stems.contains(id), "{id} is also a baseline stem");
        }
    }
}
