//! The flow registry: one place that knows how to turn a flow name into a
//! runnable [`Flow`].
//!
//! The CLI, the bench binaries and the journal's configuration checks used
//! to each carry their own `match` over flow-name strings; they all
//! dispatch through [`by_name`] now, so adding a flow means touching this
//! file once. [`FlowName`] is the typed form of that selection — front
//! ends parse user input into it once (via [`FromStr`])
//! and everything downstream matches exhaustively instead of comparing
//! strings. [`by_name`] accepts either a `FlowName` or a raw `&str` (which
//! it parses), so string-keyed contexts like journal headers keep working.

use std::fmt;
use std::str::FromStr;

use crate::accals::AccAlsFlow;
use crate::config::FlowConfig;
use crate::conventional::ConventionalFlow;
use crate::dual_phase::DualPhaseFlow;
use crate::error::EngineError;
use crate::flow::Flow;
use crate::vecbee_flow::VecbeeDepthOneFlow;

/// Canonical names accepted by [`by_name`], in presentation order.
pub const FLOW_NAMES: &[&str] = &["conventional", "l1", "accals", "dp", "dpsa"];

/// A registered flow, as a typed selection.
///
/// `Display` renders the canonical registry token (`dpsa`, …) and
/// `FromStr` inverts it, so the enum is the single source of truth for the
/// CLI `--flow` option and the service wire protocol alike.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum FlowName {
    /// Enhanced VECBEE `l = ∞` baseline: one comprehensive analysis per
    /// applied LAC.
    Conventional,
    /// VECBEE with depth limit `l = 1`.
    L1,
    /// AccALS-style multi-LAC selection.
    AccAls,
    /// The paper's dual-phase flow.
    Dp,
    /// Dual-phase with self-adaption (DP-SA).
    DpSa,
}

impl FlowName {
    /// Every registered flow, in [`FLOW_NAMES`] order.
    pub const ALL: [FlowName; 5] =
        [FlowName::Conventional, FlowName::L1, FlowName::AccAls, FlowName::Dp, FlowName::DpSa];

    /// The canonical registry token (what [`FromStr`] parses).
    pub fn token(self) -> &'static str {
        match self {
            FlowName::Conventional => "conventional",
            FlowName::L1 => "l1",
            FlowName::AccAls => "accals",
            FlowName::Dp => "dp",
            FlowName::DpSa => "dpsa",
        }
    }

    /// Whether the flow supports crash-safe journaling (mirrors
    /// [`Flow::supports_journal`] without constructing the flow).
    pub fn supports_journal(self) -> bool {
        matches!(self, FlowName::Dp | FlowName::DpSa)
    }
}

impl fmt::Display for FlowName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl FromStr for FlowName {
    type Err = EngineError;

    fn from_str(s: &str) -> Result<FlowName, EngineError> {
        match s {
            "conventional" => Ok(FlowName::Conventional),
            "l1" => Ok(FlowName::L1),
            "accals" => Ok(FlowName::AccAls),
            "dp" => Ok(FlowName::Dp),
            "dpsa" => Ok(FlowName::DpSa),
            other => Err(EngineError::Config(format!(
                "unknown flow {other:?} (expected one of: {})",
                FLOW_NAMES.join(", ")
            ))),
        }
    }
}

impl TryFrom<&str> for FlowName {
    type Error = EngineError;

    fn try_from(s: &str) -> Result<FlowName, EngineError> {
        s.parse()
    }
}

impl TryFrom<&String> for FlowName {
    type Error = EngineError;

    fn try_from(s: &String) -> Result<FlowName, EngineError> {
        s.parse()
    }
}

/// Builds the flow registered under `name` with the given configuration.
///
/// `name` is either a typed [`FlowName`] (infallible dispatch) or a raw
/// string, which is parsed first; unknown strings return
/// [`EngineError::Config`] listing the valid tokens.
pub fn by_name<N>(name: N, cfg: FlowConfig) -> Result<Box<dyn Flow>, EngineError>
where
    N: TryInto<FlowName>,
    N::Error: Into<EngineError>,
{
    let name = name.try_into().map_err(Into::into)?;
    Ok(match name {
        FlowName::Conventional => Box::new(ConventionalFlow::new(cfg)),
        FlowName::L1 => Box::new(VecbeeDepthOneFlow::new(cfg)),
        FlowName::AccAls => Box::new(AccAlsFlow::new(cfg)),
        FlowName::Dp => Box::new(DualPhaseFlow::new(cfg)),
        FlowName::DpSa => Box::new(DualPhaseFlow::with_self_adaption(cfg)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_error::MetricKind;

    fn cfg() -> FlowConfig {
        FlowConfig::new(MetricKind::Med, 1.0)
    }

    #[test]
    fn every_registered_name_resolves() {
        for &name in FLOW_NAMES {
            let flow = by_name(name, cfg()).unwrap();
            assert!(!flow.name().is_empty(), "{name}");
        }
    }

    #[test]
    fn typed_and_string_dispatch_agree() {
        for (token, typed) in FLOW_NAMES.iter().zip(FlowName::ALL) {
            assert_eq!(typed.token(), *token);
            assert_eq!(typed.to_string().parse::<FlowName>().unwrap(), typed);
            let from_str = by_name(*token, cfg()).unwrap();
            let from_enum = by_name(typed, cfg()).unwrap();
            assert_eq!(from_str.name(), from_enum.name(), "{token}");
        }
    }

    #[test]
    fn registry_names_map_to_expected_flows() {
        assert_eq!(by_name(FlowName::DpSa, cfg()).unwrap().name(), "DP-SA");
        assert_eq!(by_name(FlowName::Dp, cfg()).unwrap().name(), "DP");
        assert_eq!(by_name("conventional", cfg()).unwrap().name(), "Conventional(l=inf)");
        assert_eq!(by_name("l1", cfg()).unwrap().name(), "VECBEE(l=1)");
        assert_eq!(by_name("accals", cfg()).unwrap().name(), "AccALS");
    }

    #[test]
    fn only_dual_phase_flows_journal() {
        for name in FlowName::ALL {
            let flow = by_name(name, cfg()).unwrap();
            assert_eq!(flow.supports_journal(), name.supports_journal(), "{name}");
            assert_eq!(name.supports_journal(), matches!(name, FlowName::Dp | FlowName::DpSa));
        }
    }

    #[test]
    fn unknown_name_lists_alternatives() {
        let Err(err) = by_name("sasimi", cfg()) else {
            panic!("unknown flow name must not resolve");
        };
        let msg = err.to_string();
        assert!(msg.contains("sasimi") && msg.contains("dpsa"), "{msg}");
        assert!("".parse::<FlowName>().is_err());
        assert!("DPSA".parse::<FlowName>().is_err(), "tokens are exact, not case-folded");
    }
}
