//! The grammar between text and configuration values — the only module that
//! maps one to the other.
//!
//! Every closed set of names is one [`vocabulary!`] declaration, which
//! generates `ALL`, `name()`, `parse()` and the `a|b|c` alternatives usage
//! lines quote (`HELP`). Aliases are accepted on input only: `name()`, and
//! so every rendering, has one spelling per value. The two composite
//! spellings, `--policy` and `--topology`, are [`PolicyOverride`] and
//! [`TopologyOverride`]: what their text parses into, whose `Display` is the
//! canonical text `parse` reads back to the same value.
//!
//! Errors carry no flag or field name: whoever read the text knows where it
//! came from and says so (`--topology: …`, `cell.fabric: …`).

use std::fmt;

use super::types::{
    KernelKind, McPlacement, MemSchedPolicy, RequestPolicyKind, ResponsePolicyKind,
    RoutingAlgorithm, Scheme, StarvationPolicy, SystemConfig, TopologyKind,
};

/// Declares the names of a closed set of values: `Variant = "name"`, input
/// aliases after a `|`.
macro_rules! vocabulary {
    ($ty:ident, $noun:literal:
        $($variant:ident = $name:literal $(| $alias:literal)*),+ $(,)?) => {
        impl $ty {
            /// Every value, in help order.
            #[allow(dead_code)] // the private key sets are only parsed
            pub const ALL: [Self; [$($name),+].len()] = [$(Self::$variant),+];

            /// The names, as a usage line quotes them: `a|b|c`.
            #[allow(dead_code)]
            pub const HELP: &'static str = vocabulary!(@alternatives $($name),+);

            /// The one name this value is rendered as.
            #[must_use]
            pub fn name(&self) -> &'static str {
                match self {
                    $(Self::$variant => $name,)+
                }
            }

            /// Parses a name or one of its input aliases.
            ///
            /// # Errors
            ///
            /// A message listing every known name.
            pub fn parse(value: &str) -> Result<Self, String> {
                match value {
                    $($name $(| $alias)* => Ok(Self::$variant),)+
                    _ => Err(format!(
                        concat!("unknown ", $noun, " {:?} (known: {})"),
                        value,
                        [$($name),+].join(", ")
                    )),
                }
            }
        }
    };
    (@alternatives $first:literal $(, $rest:literal)*) => {
        concat!($first $(, "|", $rest)*)
    };
}

vocabulary!(TopologyKind, "fabric":
    Mesh = "mesh", Torus = "torus", CMesh = "cmesh", Express = "express");
vocabulary!(McPlacement, "MC placement":
    Corner = "corner", Edge = "edge", Center = "center");
vocabulary!(KernelKind, "kernel": Cycle = "cycle", Event = "event");
vocabulary!(Scheme, "scheme":
    Baseline = "baseline" | "none", S1 = "s1", S2 = "s2", Both = "both");
vocabulary!(RequestPolicyKind, "request policy": Baseline = "baseline", Scheme2 = "scheme2");
vocabulary!(ResponsePolicyKind, "response policy": Baseline = "baseline", Scheme1 = "scheme1");
vocabulary!(RoutingAlgorithm, "routing": XY = "xy", YX = "yx");
vocabulary!(MemSchedPolicy, "scheduler": FrFcfs = "frfcfs", Fcfs = "fcfs");
vocabulary!(StarvationPolicy, "arbitration policy":
    AgeGuard = "age-guard", StaticPriority = "static");

/// The keys of a `--policy` list.
#[derive(Clone, Copy)]
enum PolicyKey {
    Req,
    Resp,
    Arb,
}
vocabulary!(PolicyKey, "key":
    Req = "req" | "request", Resp = "resp" | "response", Arb = "arb" | "arbitration");

/// The parameter keys of a `--topology` spec.
#[derive(Clone, Copy)]
enum TopologyKey {
    C,
    Skip,
    Mc,
}
vocabulary!(TopologyKey, "key":
    C = "c" | "concentration", Skip = "skip" | "ruche", Mc = "mc");

/// The `key=value` items of a comma-separated list (empty items skipped).
fn key_values(list: &str) -> impl Iterator<Item = Result<(&str, &str), String>> {
    list.split(',').filter(|p| !p.is_empty()).map(|part| {
        part.split_once('=')
            .ok_or_else(|| format!("expected key=value, got {part:?}"))
    })
}

/// `key=value` for every set slot, comma-separated.
fn key_value_list(slots: [(&str, Option<String>); 3]) -> String {
    let set = slots
        .iter()
        .filter_map(|(key, value)| Some(format!("{key}={}", value.as_ref()?)));
    set.collect::<Vec<_>>().join(",")
}

/// A parsed `--policy req=<name>,resp=<name>,arb=<name>` override from the
/// sweep CLI. Unset slots leave the configuration untouched, so a single
/// override composes with each binary's own scheme/config sweep.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicyOverride {
    /// Request-injection policy to select, if any.
    pub request: Option<RequestPolicyKind>,
    /// Response-injection policy to select, if any.
    pub response: Option<ResponsePolicyKind>,
    /// Arbitration policy to select, if any.
    pub arbitration: Option<StarvationPolicy>,
}

impl PolicyOverride {
    /// What `--policy` accepts, for usage lines.
    #[must_use]
    pub fn help() -> String {
        format!(
            "req={},resp={},arb={}",
            RequestPolicyKind::HELP,
            ResponsePolicyKind::HELP,
            StarvationPolicy::HELP
        )
    }

    /// Parses a `key=value` list, e.g. `req=scheme2,resp=scheme1` or
    /// `arb=static`.
    ///
    /// # Errors
    ///
    /// A message for an unknown key, an unknown policy name or a malformed
    /// value.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut out = PolicyOverride::default();
        for item in key_values(spec) {
            let (key, value) = item?;
            match PolicyKey::parse(key)? {
                PolicyKey::Req => out.request = Some(RequestPolicyKind::parse(value)?),
                PolicyKey::Resp => out.response = Some(ResponsePolicyKind::parse(value)?),
                PolicyKey::Arb => out.arbitration = Some(StarvationPolicy::parse(value)?),
            }
        }
        Ok(out)
    }

    /// Whether the override selects anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Applies the selected slots to a configuration, leaving unset slots
    /// untouched.
    pub fn apply(&self, cfg: &mut SystemConfig) {
        if let Some(req) = self.request {
            cfg.policy.request = req;
        }
        if let Some(resp) = self.response {
            cfg.policy.response = resp;
        }
        if let Some(arb) = self.arbitration {
            cfg.noc.starvation = arb;
        }
    }
}

/// The set slots as `req=…,resp=…,arb=…`; nothing for the empty override.
impl fmt::Display for PolicyOverride {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let arbitration = self.arbitration.map(|arb| arb.name().to_string());
        let request = self.request.map(|kind| kind.name().to_string());
        let response = self.response.map(|kind| kind.name().to_string());
        let slots = [
            (PolicyKey::Req.name(), request),
            (PolicyKey::Resp.name(), response),
            (PolicyKey::Arb.name(), arbitration),
        ];
        f.write_str(&key_value_list(slots))
    }
}

/// A parsed `--topology NAME[:PARAM=V,...]` override from the sweep CLI,
/// e.g. `torus`, `cmesh:c=4`, `express:skip=2,mc=edge`. Like
/// [`PolicyOverride`] it composes with each binary's own config sweep:
/// the tile-grid dimensions are left untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TopologyOverride {
    /// Fabric to select, if any.
    pub kind: Option<TopologyKind>,
    /// Concentration factor (`c=`), if given.
    pub concentration: Option<u16>,
    /// Express skip distance (`skip=`), if given.
    pub express_skip: Option<u16>,
    /// MC placement (`mc=`), if given.
    pub mc_placement: Option<McPlacement>,
}

impl TopologyOverride {
    /// What `--topology` accepts, for usage lines.
    #[must_use]
    pub fn help() -> String {
        format!(
            "{}[:c=N,skip=N,mc={}]",
            TopologyKind::HELP,
            McPlacement::HELP
        )
    }

    /// Parses `NAME[:PARAM=V,...]`, e.g. `torus`, `cmesh:c=4`,
    /// `express:skip=2,mc=center`; the empty string overrides nothing.
    ///
    /// # Errors
    ///
    /// A message for an unknown fabric, an unknown key, a malformed value,
    /// or a parameter the named fabric does not take (`mesh:c=4`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut out = TopologyOverride::default();
        if spec.is_empty() {
            return Ok(out);
        }
        let (name, params) = spec.split_once(':').unwrap_or((spec, ""));
        let kind = TopologyKind::parse(name)?;
        out.kind = Some(kind);
        for item in key_values(params) {
            let (key, value) = item?;
            let number = |what: &str| {
                let parsed = value.parse::<u16>();
                parsed.map_err(|_| format!("bad {what} {value:?}"))
            };
            match TopologyKey::parse(key)? {
                TopologyKey::C if kind == TopologyKind::CMesh => {
                    out.concentration = Some(number("concentration")?);
                }
                TopologyKey::Skip if kind == TopologyKind::Express => {
                    out.express_skip = Some(number("skip distance")?);
                }
                TopologyKey::Mc => out.mc_placement = Some(McPlacement::parse(value)?),
                key => {
                    let (fabric, key) = (kind.name(), key.name());
                    return Err(format!("{fabric} takes no {key}= parameter"));
                }
            }
        }
        Ok(out)
    }

    /// Whether the override selects anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// This override as an absolute fabric, its defaults spelled out: no
    /// fabric named is the mesh, `cmesh` is `c=4`, `express` is `skip=2`.
    /// Spellings that select the same fabric resolve to equal values.
    #[must_use]
    pub fn resolved(mut self) -> Self {
        let kind = self.kind.unwrap_or_default();
        self.kind = Some(kind);
        if kind == TopologyKind::CMesh {
            self.concentration.get_or_insert(4);
        }
        if kind == TopologyKind::Express {
            self.express_skip.get_or_insert(2);
        }
        self
    }

    /// Applies the override to a configuration, keeping the tile-grid
    /// dimensions: a named fabric replaces the configured one together with
    /// its parameter ([`TopologyOverride::resolved`] fills the default).
    pub fn apply(&self, cfg: &mut SystemConfig) {
        if let Some(kind) = self.kind {
            let fabric = self.resolved();
            cfg.topology.kind = kind;
            cfg.topology.concentration = fabric.concentration.unwrap_or(1);
            cfg.topology.express_skip = fabric.express_skip.unwrap_or(0);
        }
        if let Some(mc) = self.mc_placement {
            cfg.topology.mc_placement = mc;
        }
    }
}

/// `NAME[:c=N][,skip=N][,mc=PLACEMENT]` with exactly the parameters that are
/// set; nothing for the empty override.
impl fmt::Display for TopologyOverride {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Some(kind) = self.kind else {
            return Ok(());
        };
        let placement = self.mc_placement.map(|mc| mc.name().to_string());
        let params = key_value_list([
            (
                TopologyKey::C.name(),
                self.concentration.map(|c| c.to_string()),
            ),
            (
                TopologyKey::Skip.name(),
                self.express_skip.map(|s| s.to_string()),
            ),
            (TopologyKey::Mc.name(), placement),
        ]);
        let sep = if params.is_empty() { "" } else { ":" };
        write!(f, "{}{sep}{params}", kind.name())
    }
}
