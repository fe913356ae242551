//! Atomic rules (paper §3.3): the units subscription rules decompose into.
//!
//! * A **triggering rule** refers to a single class and carries no predicate
//!   or one comparison with a constant.
//! * A **join rule** joins the results of two other atomic rules with a
//!   single join predicate and registers the resources of one input side.
//!
//! Atomic rules are deduplicated by canonical text (paper §3.3.2 — "no rules
//! having the same rule text but different rule_ids"), so shared predicates
//! across subscriptions are evaluated once.

use std::fmt;

use mdv_rdf::RDF_SUBJECT;
use mdv_rulelang::RuleOp;

/// Identifier of an atomic rule, unique within one filter engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u64);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier of a rule group (paper §3.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub u64);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The comparison of a triggering rule. The operator fixes both the
/// comparison semantics and the physical `FilterRules*` table the rule is
/// stored in (paper §3.3.4): string-equality rules live in a table indexed
/// on `(class, property, value)` (point probes); all others live in tables
/// indexed on `(class, property)` and compare values after reconversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TriggerOp {
    /// String equality — probed via full-key hash index.
    EqStr,
    /// String inequality.
    NeStr,
    /// Substring containment (`contains`).
    Contains,
    /// Numeric comparisons; constants stored as strings, reconverted when
    /// joining (paper §3.3.4).
    EqNum,
    NeNum,
    Lt,
    Le,
    Gt,
    Ge,
}

impl TriggerOp {
    /// Classifies a rule-language operator and constant into a trigger
    /// operator. `numeric` is whether the constant is a numeric literal.
    pub fn classify(op: RuleOp, numeric: bool) -> Option<TriggerOp> {
        match (op, numeric) {
            (RuleOp::Eq, false) => Some(TriggerOp::EqStr),
            (RuleOp::Ne, false) => Some(TriggerOp::NeStr),
            (RuleOp::Eq, true) => Some(TriggerOp::EqNum),
            (RuleOp::Ne, true) => Some(TriggerOp::NeNum),
            (RuleOp::Lt, true) => Some(TriggerOp::Lt),
            (RuleOp::Le, true) => Some(TriggerOp::Le),
            (RuleOp::Gt, true) => Some(TriggerOp::Gt),
            (RuleOp::Ge, true) => Some(TriggerOp::Ge),
            (RuleOp::Contains, false) => Some(TriggerOp::Contains),
            // the typechecker rejects these earlier; classification is None
            (RuleOp::Contains, true)
            | (RuleOp::Lt | RuleOp::Le | RuleOp::Gt | RuleOp::Ge, false) => None,
        }
    }

    /// Evaluates `doc_value op rule_value` with the operator's semantics.
    pub fn matches(self, doc_value: &str, rule_value: &str) -> bool {
        match self {
            TriggerOp::EqStr => doc_value == rule_value,
            TriggerOp::NeStr => doc_value != rule_value,
            TriggerOp::Contains => doc_value.contains(rule_value),
            TriggerOp::EqNum
            | TriggerOp::NeNum
            | TriggerOp::Lt
            | TriggerOp::Le
            | TriggerOp::Gt
            | TriggerOp::Ge => {
                // reconversion: both sides must parse as numbers
                let (Ok(d), Ok(r)) = (
                    doc_value.trim().parse::<f64>(),
                    rule_value.trim().parse::<f64>(),
                ) else {
                    return false;
                };
                match self {
                    TriggerOp::EqNum => d == r,
                    TriggerOp::NeNum => d != r,
                    TriggerOp::Lt => d < r,
                    TriggerOp::Le => d <= r,
                    TriggerOp::Gt => d > r,
                    TriggerOp::Ge => d >= r,
                    _ => unreachable!("outer match covers string operators"),
                }
            }
        }
    }
}

impl fmt::Display for TriggerOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TriggerOp::EqStr | TriggerOp::EqNum => "=",
            TriggerOp::NeStr | TriggerOp::NeNum => "!=",
            TriggerOp::Contains => "contains",
            TriggerOp::Lt => "<",
            TriggerOp::Le => "<=",
            TriggerOp::Gt => ">",
            TriggerOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// The constant predicate of a triggering rule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TriggerPred {
    pub property: String,
    pub op: TriggerOp,
    /// Constant in lexical (string) form — the paper stores all constants as
    /// strings and reconverts numeric ones when joining (§3.3.4).
    pub value: String,
}

impl fmt::Display for TriggerPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v.{} {} '{}'", self.property, self.op, self.value)
    }
}

/// Which input side of a join rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    Left,
    Right,
}

impl Side {
    pub fn other(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// One input of a join rule: the atomic rule producing the extension and the
/// class of its resources.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InputRef {
    pub rule: RuleId,
    pub class: String,
}

/// The join predicate `left.left_prop op right.right_prop`, where either
/// property may be [`RDF_SUBJECT`] to denote the resource's own URI
/// reference. This uniformly encodes the three paper shapes:
///
/// * intersection `a = b` — `subject = subject`,
/// * reference join `c.serverInformation = a` — `prop = subject`,
/// * value join `a.memory = b.cpu` — `prop = prop`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinPred {
    pub left_prop: String,
    pub op: RuleOp,
    pub right_prop: String,
}

impl JoinPred {
    pub fn identity() -> Self {
        JoinPred {
            left_prop: RDF_SUBJECT.into(),
            op: RuleOp::Eq,
            right_prop: RDF_SUBJECT.into(),
        }
    }

    /// Evaluates the predicate on two property values (lexical forms).
    /// Equality and inequality compare the *exact lexical form* — reference
    /// joins are URI-string equality, and equality probes run through the
    /// `(class, property, value)` hash index, so the evaluated semantics
    /// must agree with the indexed ones. Ordering operators reconvert both
    /// sides to numbers (paper §3.3.4).
    pub fn value_matches(&self, left: &str, right: &str) -> bool {
        let numeric = || -> Option<(f64, f64)> {
            Some((left.trim().parse().ok()?, right.trim().parse().ok()?))
        };
        match self.op {
            RuleOp::Eq => left == right,
            RuleOp::Ne => left != right,
            RuleOp::Contains => left.contains(right),
            RuleOp::Lt | RuleOp::Le | RuleOp::Gt | RuleOp::Ge => match numeric() {
                Some((l, r)) => match self.op {
                    RuleOp::Lt => l < r,
                    RuleOp::Le => l <= r,
                    RuleOp::Gt => l > r,
                    RuleOp::Ge => l >= r,
                    _ => unreachable!("outer match restricts to ordering operators"),
                },
                None => false,
            },
        }
    }
}

impl fmt::Display for JoinPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = |p: &str| {
            if p == RDF_SUBJECT {
                "<self>".to_owned()
            } else {
                format!(".{p}")
            }
        };
        write!(
            f,
            "a{} {} b{}",
            side(&self.left_prop),
            self.op,
            side(&self.right_prop)
        )
    }
}

/// A join rule: inputs, predicate, and which side it registers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinSpec {
    pub left: InputRef,
    pub right: InputRef,
    pub register: Side,
    pub pred: JoinPred,
}

impl JoinSpec {
    /// Canonicalizes operand order so that equal joins written in either
    /// orientation deduplicate: the side with the smaller
    /// `(class, property, rule)` key becomes the left input, mirroring the
    /// operator. Ordering by class/property first keeps every member of a
    /// rule group in the *same* orientation (they differ only in input rule
    /// ids), which lets the group evaluator share counterpart probes.
    /// `contains` cannot be mirrored and keeps its orientation.
    pub fn canonicalize(mut self) -> JoinSpec {
        let Some(mirrored) = self.pred.op.mirrored() else {
            return self;
        };
        let left_key = (
            self.left.class.clone(),
            self.pred.left_prop.clone(),
            self.left.rule,
        );
        let right_key = (
            self.right.class.clone(),
            self.pred.right_prop.clone(),
            self.right.rule,
        );
        if right_key < left_key {
            std::mem::swap(&mut self.left, &mut self.right);
            std::mem::swap(&mut self.pred.left_prop, &mut self.pred.right_prop);
            self.pred.op = mirrored;
            self.register = self.register.other();
        }
        self
    }

    pub fn input(&self, side: Side) -> &InputRef {
        match side {
            Side::Left => &self.left,
            Side::Right => &self.right,
        }
    }

    /// The input whose resources this join registers.
    pub fn register_input(&self) -> &InputRef {
        self.input(self.register)
    }

    /// The shape shared by all members of a rule group (paper §3.3.3): equal
    /// where part with variables bound to the same classes — input *rules*
    /// excluded. The key is orientation-canonical (ordered by class and
    /// property, not by input rule ids), so joins that
    /// [`JoinSpec::canonicalize`] oriented differently still share a group.
    pub fn group_key(&self) -> GroupKey {
        let mut key = GroupKey {
            left_class: self.left.class.clone(),
            right_class: self.right.class.clone(),
            register: self.register,
            pred: self.pred.clone(),
        };
        if let Some(mirrored) = key.pred.op.mirrored() {
            let left_k = (&key.left_class, &key.pred.left_prop);
            let right_k = (&key.right_class, &key.pred.right_prop);
            if right_k < left_k {
                std::mem::swap(&mut key.left_class, &mut key.right_class);
                std::mem::swap(&mut key.pred.left_prop, &mut key.pred.right_prop);
                key.pred.op = mirrored;
                key.register = key.register.other();
            }
        }
        key
    }
}

/// The grouping key of a join rule (see [`JoinSpec::group_key`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupKey {
    pub left_class: String,
    pub right_class: String,
    pub register: Side,
    pub pred: JoinPred,
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "search {} a, {} b register {} where {}",
            self.left_class,
            self.right_class,
            if self.register == Side::Left {
                "a"
            } else {
                "b"
            },
            self.pred
        )
    }
}

/// The body of an atomic rule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AtomicRuleKind {
    Trigger {
        class: String,
        pred: Option<TriggerPred>,
    },
    Join(JoinSpec),
}

/// A registered atomic rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicRule {
    pub id: RuleId,
    pub kind: AtomicRuleKind,
    /// The class of the resources this rule registers (the rule's *type*,
    /// paper §3.3.1).
    pub type_class: String,
    /// The group a join rule belongs to; `None` for triggering rules.
    pub group: Option<GroupId>,
}

impl AtomicRule {
    /// Canonical rule text used for deduplication. Join-rule texts embed the
    /// ids of their (already deduplicated) inputs, so equality is recursive.
    pub fn canonical_text(kind: &AtomicRuleKind) -> String {
        match kind {
            AtomicRuleKind::Trigger { class, pred: None } => {
                format!("search {class} v register v")
            }
            AtomicRuleKind::Trigger {
                class,
                pred: Some(p),
            } => {
                format!("search {class} v register v where {p}")
            }
            AtomicRuleKind::Join(j) => format!(
                "search ({}:{}) a, ({}:{}) b register {} where {}",
                j.left.rule,
                j.left.class,
                j.right.rule,
                j.right.class,
                if j.register == Side::Left { "a" } else { "b" },
                j.pred
            ),
        }
    }

    pub fn is_trigger(&self) -> bool {
        matches!(self.kind, AtomicRuleKind::Trigger { .. })
    }

    pub fn is_join(&self) -> bool {
        matches!(self.kind, AtomicRuleKind::Join(_))
    }
}

impl fmt::Display for AtomicRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}",
            self.id,
            AtomicRule::canonical_text(&self.kind)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_op_classification() {
        assert_eq!(
            TriggerOp::classify(RuleOp::Eq, false),
            Some(TriggerOp::EqStr)
        );
        assert_eq!(
            TriggerOp::classify(RuleOp::Eq, true),
            Some(TriggerOp::EqNum)
        );
        assert_eq!(TriggerOp::classify(RuleOp::Gt, true), Some(TriggerOp::Gt));
        assert_eq!(TriggerOp::classify(RuleOp::Gt, false), None);
        assert_eq!(
            TriggerOp::classify(RuleOp::Contains, false),
            Some(TriggerOp::Contains)
        );
        assert_eq!(TriggerOp::classify(RuleOp::Contains, true), None);
    }

    #[test]
    fn trigger_op_matching() {
        assert!(TriggerOp::Gt.matches("92", "64"));
        assert!(!TriggerOp::Gt.matches("32", "64"));
        assert!(
            TriggerOp::Gt.matches("92.5", "64"),
            "reconversion handles floats"
        );
        assert!(!TriggerOp::Gt.matches("not-a-number", "64"));
        assert!(
            TriggerOp::EqNum.matches("064", "64"),
            "numeric equality ignores lexical form"
        );
        assert!(TriggerOp::EqStr.matches("doc.rdf#host", "doc.rdf#host"));
        assert!(
            !TriggerOp::EqStr.matches("064", "64"),
            "string equality is exact"
        );
        assert!(TriggerOp::Contains.matches("pirates.uni-passau.de", "uni-passau.de"));
        assert!(TriggerOp::NeNum.matches("1", "2"));
        assert!(TriggerOp::Le.matches("64", "64"));
        assert!(TriggerOp::Ge.matches("64", "64"));
        assert!(TriggerOp::Lt.matches("63", "64"));
    }

    #[test]
    fn join_pred_value_matching() {
        let eq = JoinPred {
            left_prop: "p".into(),
            op: RuleOp::Eq,
            right_prop: "q".into(),
        };
        assert!(eq.value_matches("doc.rdf#info", "doc.rdf#info"));
        assert!(
            !eq.value_matches("64", "64.0"),
            "equality is exact-lexical (indexable)"
        );
        assert!(!eq.value_matches("doc.rdf#a", "doc.rdf#b"));
        let lt = JoinPred {
            left_prop: "p".into(),
            op: RuleOp::Lt,
            right_prop: "q".into(),
        };
        assert!(lt.value_matches("3", "4"));
        assert!(!lt.value_matches("uri", "4"), "ordering requires numbers");
        let con = JoinPred {
            left_prop: "p".into(),
            op: RuleOp::Contains,
            right_prop: "q".into(),
        };
        assert!(con.value_matches("abcdef", "cde"));
    }

    #[test]
    fn join_canonicalization_dedupes_orientations() {
        let a = JoinSpec {
            left: InputRef {
                rule: RuleId(5),
                class: "C".into(),
            },
            right: InputRef {
                rule: RuleId(3),
                class: "S".into(),
            },
            register: Side::Left,
            pred: JoinPred {
                left_prop: "serverInformation".into(),
                op: RuleOp::Eq,
                right_prop: RDF_SUBJECT.into(),
            },
        }
        .canonicalize();
        let b = JoinSpec {
            left: InputRef {
                rule: RuleId(3),
                class: "S".into(),
            },
            right: InputRef {
                rule: RuleId(5),
                class: "C".into(),
            },
            register: Side::Right,
            pred: JoinPred {
                left_prop: RDF_SUBJECT.into(),
                op: RuleOp::Eq,
                right_prop: "serverInformation".into(),
            },
        }
        .canonicalize();
        assert_eq!(a, b);
        assert_eq!(
            AtomicRule::canonical_text(&AtomicRuleKind::Join(a)),
            AtomicRule::canonical_text(&AtomicRuleKind::Join(b))
        );
    }

    #[test]
    fn contains_join_keeps_orientation() {
        let j = JoinSpec {
            left: InputRef {
                rule: RuleId(9),
                class: "C".into(),
            },
            right: InputRef {
                rule: RuleId(1),
                class: "D".into(),
            },
            register: Side::Left,
            pred: JoinPred {
                left_prop: "text".into(),
                op: RuleOp::Contains,
                right_prop: "pat".into(),
            },
        };
        let c = j.clone().canonicalize();
        assert_eq!(j, c);
    }

    #[test]
    fn group_key_ignores_input_rules() {
        // paper §3.3.3: RuleC1 and RuleC2 differ only in inputs
        let mk = |right_rule: u64| JoinSpec {
            left: InputRef {
                rule: RuleId(0),
                class: "CycleProvider".into(),
            },
            right: InputRef {
                rule: RuleId(right_rule),
                class: "ServerInformation".into(),
            },
            register: Side::Left,
            pred: JoinPred {
                left_prop: "serverInformation".into(),
                op: RuleOp::Eq,
                right_prop: RDF_SUBJECT.into(),
            },
        };
        assert_eq!(mk(1).group_key(), mk(2).group_key());
        assert_ne!(
            AtomicRule::canonical_text(&AtomicRuleKind::Join(mk(1))),
            AtomicRule::canonical_text(&AtomicRuleKind::Join(mk(2)))
        );
    }

    #[test]
    fn canonical_text_distinguishes_triggers() {
        let t1 = AtomicRuleKind::Trigger {
            class: "C".into(),
            pred: None,
        };
        let t2 = AtomicRuleKind::Trigger {
            class: "C".into(),
            pred: Some(TriggerPred {
                property: "p".into(),
                op: TriggerOp::Gt,
                value: "64".into(),
            }),
        };
        assert_ne!(
            AtomicRule::canonical_text(&t1),
            AtomicRule::canonical_text(&t2)
        );
    }
}
