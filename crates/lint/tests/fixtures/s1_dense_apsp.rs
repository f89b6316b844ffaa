// Fixture: S1 must flag dense all-pairs computes outside the
// sanctioned files, in both the plain and parallel form, but leave
// doc-path references and test-only regions alone.
use peercache_graph::paths::{AllPairsPaths, Parallelism};

/// See [`AllPairsPaths::compute`] for the dense form.
pub fn rebuild_everything(g: &Graph, costs: &[f64]) -> AllPairsPaths {
    let dense = AllPairsPaths::compute(g, costs).unwrap();
    let par = AllPairsPaths::compute_with(g, costs, Parallelism::Auto);
    let _ = par;
    dense
}

#[cfg(test)]
mod tests {
    #[test]
    fn dense_is_fine_in_tests() {
        let _ = AllPairsPaths::compute(&g(), &[1.0]);
    }
}
