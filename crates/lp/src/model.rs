// Index loops below walk several parallel arrays at once; iterator
// chains would obscure the lockstep structure.
#![allow(clippy::needless_range_loop)]

use std::fmt;

use crate::LpError;

/// Identifier of a decision variable in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Raw column index of the variable.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Optimization direction of the objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective (the caching ILP minimizes total cost).
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Relation of a linear constraint row to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub terms: Vec<(VarId, f64)>,
    pub relation: Relation,
    pub rhs: f64,
}

/// An LP / mixed-integer-LP model under construction.
///
/// Variables carry bounds and an objective coefficient; constraints are
/// sparse linear rows. Mark variables integral with
/// [`Model::add_integer_var`] or [`Model::add_binary_var`] and solve
/// with [`crate::solve_milp`]; continuous models solve with
/// [`crate::solve_lp`].
///
/// # Example
///
/// ```
/// use peercache_lp::{Model, Relation, Sense};
///
/// // A tiny knapsack: maximize 6a + 5b with a + b <= 1, binary.
/// let mut m = Model::new(Sense::Maximize);
/// let a = m.add_binary_var("a", 6.0);
/// let b = m.add_binary_var("b", 5.0);
/// m.add_constraint(vec![(a, 1.0), (b, 1.0)], Relation::Le, 1.0);
/// let sol = peercache_lp::solve_milp(&m, &Default::default())?;
/// assert!((sol.objective - 6.0).abs() < 1e-6);
/// # Ok::<(), peercache_lp::LpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Model {
    sense: Sense,
    names: Vec<String>,
    objective: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    integer: Vec<bool>,
    constraints: Vec<Constraint>,
}

impl Model {
    /// Creates an empty model with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            names: Vec::new(),
            objective: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            integer: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Adds a continuous variable with bounds `[lower, upper]` and the
    /// given objective coefficient. Use `f64::INFINITY` /
    /// `f64::NEG_INFINITY` for free bounds.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        obj_coeff: f64,
    ) -> VarId {
        let id = VarId(self.names.len());
        self.names.push(name.into());
        self.objective.push(obj_coeff);
        self.lower.push(lower);
        self.upper.push(upper);
        self.integer.push(false);
        id
    }

    /// Adds an integer variable with bounds `[lower, upper]`.
    pub fn add_integer_var(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        obj_coeff: f64,
    ) -> VarId {
        let id = self.add_var(name, lower, upper, obj_coeff);
        self.integer[id.0] = true;
        id
    }

    /// Adds a binary (0/1) variable — the `x`, `y`, `z` indicators of
    /// the caching ILP.
    pub fn add_binary_var(&mut self, name: impl Into<String>, obj_coeff: f64) -> VarId {
        self.add_integer_var(name, 0.0, 1.0, obj_coeff)
    }

    /// Adds the linear constraint `sum(terms) relation rhs`.
    ///
    /// Terms may repeat a variable; coefficients are summed.
    pub fn add_constraint(&mut self, terms: Vec<(VarId, f64)>, relation: Relation, rhs: f64) {
        self.constraints.push(Constraint {
            terms,
            relation,
            rhs,
        });
    }

    /// Optimization direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of variables in the model.
    pub fn var_count(&self) -> usize {
        self.names.len()
    }

    /// Iterates over all variable ids, in creation order.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.var_count()).map(VarId)
    }

    /// Name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.names[var.0]
    }

    /// Returns `true` if `var` is marked integral.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn is_integer(&self, var: VarId) -> bool {
        self.integer[var.0]
    }

    /// Bounds of a variable as `(lower, upper)`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this model.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        (self.lower[var.0], self.upper[var.0])
    }

    pub(crate) fn objective_coeffs(&self) -> &[f64] {
        &self.objective
    }

    pub(crate) fn lower_bounds(&self) -> &[f64] {
        &self.lower
    }

    pub(crate) fn upper_bounds(&self) -> &[f64] {
        &self.upper
    }

    pub(crate) fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    pub(crate) fn set_bounds(&mut self, var: VarId, lower: f64, upper: f64) {
        self.lower[var.0] = lower;
        self.upper[var.0] = upper;
    }

    /// Validates coefficients and bounds; called by the solvers.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::InvalidModel`] for NaN coefficients, crossed
    /// bounds, or constraint terms referencing foreign variables.
    pub fn validate(&self) -> Result<(), LpError> {
        for (i, (&l, &u)) in self.lower.iter().zip(&self.upper).enumerate() {
            if l.is_nan() || u.is_nan() {
                return Err(LpError::InvalidModel(format!("nan bound on x{i}")));
            }
            if l > u {
                return Err(LpError::InvalidModel(format!(
                    "variable {} has lower bound {l} > upper bound {u}",
                    self.names[i]
                )));
            }
        }
        for c in &self.objective {
            if c.is_nan() {
                return Err(LpError::InvalidModel("nan objective coefficient".into()));
            }
        }
        for (row, c) in self.constraints.iter().enumerate() {
            if c.rhs.is_nan() {
                return Err(LpError::InvalidModel(format!("nan rhs in row {row}")));
            }
            for &(v, coeff) in &c.terms {
                if v.0 >= self.var_count() {
                    return Err(LpError::InvalidModel(format!(
                        "row {row} references unknown variable {v}"
                    )));
                }
                if coeff.is_nan() {
                    return Err(LpError::InvalidModel(format!(
                        "nan coefficient in row {row}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Evaluates the objective at a point (no feasibility check).
    ///
    /// # Panics
    ///
    /// Panics if `values` has fewer entries than the model has variables.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.objective.iter().zip(values).map(|(c, x)| c * x).sum()
    }

    /// Checks a point against all constraints and bounds within `tol`.
    ///
    /// # Panics
    ///
    /// Panics if `values` has fewer entries than the model has variables.
    pub fn is_feasible(&self, values: &[f64], tol: f64) -> bool {
        for i in 0..self.var_count() {
            if values[i] < self.lower[i] - tol || values[i] > self.upper[i] + tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, coeff)| coeff * values[v.0]).sum();
            let ok = match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_counts_and_flags() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 2.0);
        let y = m.add_binary_var("y", 3.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 1.0);
        assert_eq!(m.var_count(), 2);
        assert_eq!(m.constraints.len(), 1);
        assert!(!m.is_integer(x));
        assert!(m.is_integer(y));
        assert_eq!(m.bounds(y), (0.0, 1.0));
        assert_eq!(m.var_name(x), "x");
    }

    #[test]
    fn validate_rejects_crossed_bounds() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var("x", 2.0, 1.0, 0.0);
        assert!(matches!(m.validate(), Err(LpError::InvalidModel(_))));
    }

    #[test]
    fn validate_rejects_foreign_vars() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var("x", 0.0, 1.0, 0.0);
        m.add_constraint(vec![(VarId(5), 1.0)], Relation::Le, 1.0);
        assert!(matches!(m.validate(), Err(LpError::InvalidModel(_))));
    }

    #[test]
    fn validate_rejects_nan() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var("x", 0.0, 1.0, f64::NAN);
        assert!(matches!(m.validate(), Err(LpError::InvalidModel(_))));
    }

    #[test]
    fn feasibility_check_honors_relations() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        m.add_constraint(vec![(x, 1.0)], Relation::Le, 5.0);
        assert!(m.is_feasible(&[3.0], 1e-9));
        assert!(!m.is_feasible(&[1.0], 1e-9));
        assert!(!m.is_feasible(&[6.0], 1e-9));
        assert!(!m.is_feasible(&[-1.0], 1e-9));
    }

    #[test]
    fn objective_value_sums_terms() {
        let mut m = Model::new(Sense::Maximize);
        let _x = m.add_var("x", 0.0, 1.0, 2.0);
        let _y = m.add_var("y", 0.0, 1.0, -1.0);
        assert_eq!(m.objective_value(&[3.0, 4.0]), 2.0);
    }

    #[test]
    fn duplicate_terms_are_summed_in_feasibility() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        // x + x <= 4  =>  x <= 2
        m.add_constraint(vec![(x, 1.0), (x, 1.0)], Relation::Le, 4.0);
        assert!(m.is_feasible(&[2.0], 1e-9));
        assert!(!m.is_feasible(&[3.0], 1e-9));
    }
}
