//! Component-based network models and their translations (paper §3.2,
//! Figures 2 and 3).
//!
//! A network model is a graph of *components*, each a route transformation
//! with input ports, one output port, and a constraint set `CT(I, O)`
//! relating them.  Two translations exist:
//!
//! * **Arc 2** ([`to_theory`]): each component becomes a PVS-style
//!   definition `t(I,O): INDUCTIVE bool = CT(I,O)`; a composite becomes the
//!   existential conjunction of its parts — exactly the `tc` and `pt`
//!   definitions printed in §3.2;
//! * **Arc 3** ([`to_ndlog`]): the §3.2.2 rule scheme — one NDlog rule per
//!   component, `t_out(O) :- in1(...), ..., CT(I,O)` — reproduced verbatim
//!   for Figure 3's `tc` by the tests.
//!
//! Property preservation (EXP‑7) is established by differential testing:
//! direct dataflow evaluation of the component graph coincides with
//! bottom-up evaluation of the generated NDlog program on random inputs.

use crate::translate::{literal_to_formula, TranslateError};
use fvn_logic::{Clause, Def, Formula, Theory};
use ndlog::ast::{Atom, Head, HeadArg, Literal, Program, Rule, Term};
use ndlog::eval::IdDatabase;
use ndlog::Value;
use std::collections::BTreeMap;

/// Where a component's input port is wired from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Wire {
    /// An external input relation `<component>_in` with the given variables.
    External(Vec<String>),
    /// The output of another component (by name), with the variables it
    /// binds in this component's constraint scope.
    From(String, Vec<String>),
}

/// An atomic component: a route transformation `inputs → output` governed by
/// NDlog-literal constraints (comparisons, assignments, auxiliary atoms).
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Component name (`t1`, `export`, `pvt`, ...).
    pub name: String,
    /// Input wires, in port order.
    pub inputs: Vec<Wire>,
    /// Output variables (the schema of `<name>_out`).
    pub output: Vec<String>,
    /// The constraint set `CT(I, O)`.
    pub constraints: Vec<Literal>,
}

/// A composite model: a list of components wired together; the last
/// component's output is the composite's output.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Composite {
    /// Model name (`tc`, `bgp`, ...).
    pub name: String,
    /// Components in topological order (inputs before users).
    pub components: Vec<Component>,
}

impl Composite {
    /// Create an empty composite.
    pub fn new(name: impl Into<String>) -> Self {
        Composite {
            name: name.into(),
            components: vec![],
        }
    }

    /// Add a component (must come after the components it reads from).
    pub fn push(&mut self, c: Component) -> &mut Self {
        self.components.push(c);
        self
    }

    /// Find a component by name.
    pub fn component(&self, name: &str) -> Option<&Component> {
        self.components.iter().find(|c| c.name == name)
    }
}

/// Arc 3 (§3.2.2): generate the NDlog program. Every component yields
/// `name_out(O) :- wires..., CT.`; external wires read `name_in`.
pub fn to_ndlog(model: &Composite) -> Program {
    let mut prog = Program::default();
    for c in &model.components {
        let mut body: Vec<Literal> = Vec::new();
        for w in &c.inputs {
            let atom = match w {
                Wire::External(vars) => Atom::plain(
                    format!("{}_in", c.name),
                    vars.iter().map(|v| Term::Var(v.clone())).collect(),
                ),
                Wire::From(upstream, vars) => Atom::plain(
                    format!("{upstream}_out"),
                    vars.iter().map(|v| Term::Var(v.clone())).collect(),
                ),
            };
            body.push(Literal::Pos(atom));
        }
        body.extend(c.constraints.iter().cloned());
        let head = Head {
            pred: format!("{}_out", c.name),
            loc: None,
            args: c
                .output
                .iter()
                .map(|v| HeadArg::Term(Term::Var(v.clone())))
                .collect(),
        };
        prog.rules.push(Rule {
            name: format!("g_{}", c.name),
            head,
            body,
        });
    }
    prog
}

/// Arc 2: generate the logical theory — `t(I,O): INDUCTIVE bool = CT(I,O)`
/// per component plus the composite's existential conjunction.
pub fn to_theory(model: &Composite) -> Result<Theory, TranslateError> {
    let mut th = Theory::new(model.name.clone());
    for c in &model.components {
        // Parameters: input variables then output variables.
        let mut params: Vec<String> = Vec::new();
        for w in &c.inputs {
            let vars = match w {
                Wire::External(vs) | Wire::From(_, vs) => vs,
            };
            for v in vars {
                if !params.contains(v) {
                    params.push(v.clone());
                }
            }
        }
        for v in &c.output {
            if !params.contains(v) {
                params.push(v.clone());
            }
        }
        let mut body = Vec::new();
        for lit in &c.constraints {
            body.push(literal_to_formula(lit)?);
        }
        // Clause-local variables (in constraints but neither input nor
        // output).
        let mut exists = Vec::new();
        for f in &body {
            for v in f.free_vars() {
                if !params.contains(&v) && !exists.contains(&v) {
                    exists.push(v);
                }
            }
        }
        th.define(
            c.name.clone(),
            Def::Inductive {
                params,
                clauses: vec![Clause {
                    name: format!("def_{}", c.name),
                    exists,
                    body,
                }],
            },
        );
    }

    // Composite definition: exists over internal wires, conjunction of
    // component atoms.
    let mut internal: Vec<String> = Vec::new();
    let mut conj: Vec<Formula> = Vec::new();
    let mut external: Vec<String> = Vec::new();
    let is_internal = |model: &Composite, var: &str| {
        model.components.iter().any(|c| {
            c.output.contains(&var.to_string())
                && model.components.iter().any(|d| {
                    d.inputs.iter().any(|w| match w {
                        Wire::From(up, vs) => up == &c.name && vs.contains(&var.to_string()),
                        _ => false,
                    })
                })
        })
    };
    for c in &model.components {
        let mut args: Vec<fvn_logic::Term> = Vec::new();
        for w in &c.inputs {
            let vars = match w {
                Wire::External(vs) | Wire::From(_, vs) => vs,
            };
            for v in vars {
                args.push(fvn_logic::Term::Var(v.clone()));
                if matches!(w, Wire::External(_)) && !external.contains(v) {
                    external.push(v.clone());
                }
            }
        }
        for v in &c.output {
            args.push(fvn_logic::Term::Var(v.clone()));
            if is_internal(model, v) {
                if !internal.contains(v) {
                    internal.push(v.clone());
                }
            } else if !external.contains(v) {
                external.push(v.clone());
            }
        }
        // Deduplicate argument list per component (inputs may repeat).
        args.dedup();
        conj.push(Formula::Pred(c.name.clone(), args));
    }
    th.define(
        model.name.clone(),
        Def::Inductive {
            params: external,
            clauses: vec![Clause {
                name: format!("def_{}", model.name),
                exists: internal,
                body: conj,
            }],
        },
    );
    Ok(th)
}

/// Direct dataflow evaluation of the component graph over concrete external
/// inputs: `inputs[name]` holds the tuples of `<name>_in`.  Returns every
/// component's output relation.  This is the *reference semantics* the
/// arc‑3 translation must preserve.
pub fn eval_dataflow(
    model: &Composite,
    inputs: &BTreeMap<String, Vec<Vec<Value>>>,
) -> Result<BTreeMap<String, Vec<Vec<Value>>>, ndlog::NdlogError> {
    // Reuse the NDlog evaluator as the constraint interpreter, but feed each
    // component separately in topological order — this is dataflow
    // (push-based) evaluation, not global fixpoint evaluation.
    let mut outs: BTreeMap<String, Vec<Vec<Value>>> = BTreeMap::new();
    for c in &model.components {
        // Build a one-rule program for this component and evaluate it.
        let mut prog = Program::default();
        let single = Composite {
            name: model.name.clone(),
            components: vec![c.clone()],
        };
        prog.rules = to_ndlog(&single).rules;
        let ev = ndlog::Evaluator::new(&prog)?;
        let symbols = ev.symbols();
        let mut db = IdDatabase::new();
        // Input relations the rule never reads are not interned; their
        // tuples could not contribute anyway.
        let mut feed = |pred: String, tuples: Option<&Vec<Vec<Value>>>| {
            if let Some(rel) = symbols.lookup(&pred) {
                for t in tuples.into_iter().flatten() {
                    db.insert(rel, t.clone().into());
                }
            }
        };
        for w in &c.inputs {
            match w {
                Wire::External(_) => feed(format!("{}_in", c.name), inputs.get(&c.name)),
                Wire::From(up, _) => feed(format!("{up}_out"), outs.get(up)),
            }
        }
        ev.run(&mut db)?;
        let out = symbols
            .lookup(&format!("{}_out", c.name))
            .map(|rel| db.relation(rel).map(|t| t.to_tuple()).collect())
            .unwrap_or_default();
        outs.insert(c.name.clone(), out);
    }
    Ok(outs)
}

/// Figure 3's compositional component `tc`: `t1(I1) → O1`, `t2(I2) → O2`,
/// `t3(O1, O2) → O3` with abstract constraints instantiated as simple
/// arithmetic (`C1: O=I+1`, `C2: O=2*I`, `C3: O=O1+O2`).
pub fn figure3_tc() -> Composite {
    use ndlog::ast::{BinOp, Expr};
    let mut m = Composite::new("tc");
    m.push(Component {
        name: "t1".into(),
        inputs: vec![Wire::External(vec!["I1".into()])],
        output: vec!["O1".into()],
        constraints: vec![Literal::Assign(
            "O1".into(),
            Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Var("I1".into())),
                Box::new(Expr::Const(Value::Int(1))),
            ),
        )],
    });
    m.push(Component {
        name: "t2".into(),
        inputs: vec![Wire::External(vec!["I2".into()])],
        output: vec!["O2".into()],
        constraints: vec![Literal::Assign(
            "O2".into(),
            Expr::Bin(
                BinOp::Mul,
                Box::new(Expr::Const(Value::Int(2))),
                Box::new(Expr::Var("I2".into())),
            ),
        )],
    });
    m.push(Component {
        name: "t3".into(),
        inputs: vec![
            Wire::From("t1".into(), vec!["O1".into()]),
            Wire::From("t2".into(), vec!["O2".into()]),
        ],
        output: vec!["O3".into()],
        constraints: vec![Literal::Assign(
            "O3".into(),
            Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Var("O1".into())),
                Box::new(Expr::Var("O2".into())),
            ),
        )],
    });
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_generates_exactly_the_papers_rules() {
        let prog = to_ndlog(&figure3_tc());
        let rendered: Vec<String> = prog.rules.iter().map(|r| r.to_string()).collect();
        assert_eq!(
            rendered,
            vec![
                "g_t1 t1_out(O1) :- t1_in(I1), O1=I1+1.",
                "g_t2 t2_out(O2) :- t2_in(I2), O2=2*I2.",
                "g_t3 t3_out(O3) :- t1_out(O1), t2_out(O2), O3=O1+O2.",
            ]
        );
    }

    #[test]
    fn figure3_theory_matches_papers_pvs_definitions() {
        let th = to_theory(&figure3_tc()).unwrap();
        // tc(I1,I2,O3): INDUCTIVE bool = EXISTS (O1,O2): t1(...) AND ...
        let Def::Inductive { params, clauses } = &th.defs["tc"] else {
            panic!()
        };
        assert_eq!(params, &["I1", "I2", "O3"]);
        assert_eq!(clauses[0].exists, vec!["O1", "O2"]);
        let body: Vec<String> = clauses[0].body.iter().map(|f| f.to_string()).collect();
        assert_eq!(body, vec!["t1(I1,O1)", "t2(I2,O2)", "t3(O1,O2,O3)"]);
        // Atomic components: t1(I,O): INDUCTIVE bool = C1(I,O).
        let Def::Inductive { params: p1, .. } = &th.defs["t1"] else {
            panic!()
        };
        assert_eq!(p1, &["I1", "O1"]);
    }

    #[test]
    fn dataflow_and_generated_ndlog_agree() {
        let model = figure3_tc();
        let mut inputs = BTreeMap::new();
        inputs.insert(
            "t1".to_string(),
            vec![vec![Value::Int(3)], vec![Value::Int(10)]],
        );
        inputs.insert("t2".to_string(), vec![vec![Value::Int(5)]]);

        // Reference dataflow semantics.
        let outs = eval_dataflow(&model, &inputs).unwrap();
        assert_eq!(outs["t3"], vec![vec![Value::Int(14)], vec![Value::Int(21)]]);

        // Generated whole-program evaluation.
        let mut prog = to_ndlog(&model);
        for (name, tuples) in &inputs {
            for t in tuples {
                prog.add_fact(Atom::plain(
                    format!("{name}_in"),
                    t.iter().map(|v| Term::Const(v.clone())).collect(),
                ));
            }
        }
        let db = ndlog::eval_program(&prog).unwrap();
        let got: Vec<_> = db.relation("t3_out").cloned().collect();
        assert_eq!(got, outs["t3"], "arc-3 translation must preserve semantics");
    }

    #[test]
    fn dataflow_matches_on_random_inputs() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for _ in 0..20 {
            let model = figure3_tc();
            let n1 = rng.random_range(0..4usize);
            let n2 = rng.random_range(0..4usize);
            let mut inputs = BTreeMap::new();
            inputs.insert(
                "t1".to_string(),
                (0..n1)
                    .map(|_| vec![Value::Int(rng.random_range(-50..50))])
                    .collect(),
            );
            inputs.insert(
                "t2".to_string(),
                (0..n2)
                    .map(|_| vec![Value::Int(rng.random_range(-50..50))])
                    .collect(),
            );
            let outs = eval_dataflow(&model, &inputs).unwrap();
            let mut prog = to_ndlog(&model);
            for (name, tuples) in &inputs {
                for t in tuples {
                    prog.add_fact(Atom::plain(
                        format!("{name}_in"),
                        t.iter().map(|v| Term::Const(v.clone())).collect(),
                    ));
                }
            }
            let db = ndlog::eval_program(&prog).unwrap();
            let got: Vec<_> = db.relation("t3_out").cloned().collect();
            assert_eq!(got, outs["t3"]);
        }
    }

    #[test]
    fn component_lookup() {
        let m = figure3_tc();
        assert!(m.component("t2").is_some());
        assert!(m.component("zz").is_none());
    }
}
