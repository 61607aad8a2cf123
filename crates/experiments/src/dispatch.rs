//! Static switch-logic dispatch: the devirtualization layer.
//!
//! The engine core (`SimCore<L>`) is generic over its switch-logic type;
//! routing systems still install plain `Box<dyn SwitchLogic>` values
//! (the stable extension seam). This module closes the loop: after
//! installation, [`Scenario`](crate::Scenario) repacks every box into a
//! [`SwitchDispatch`] — an enum carrying each built-in switch program
//! *inline* — so the per-event hot path dispatches through a jump table
//! on a local discriminant instead of a virtual call through a fat
//! pointer. Anything the downcasts don't recognize stays boxed in the
//! [`SwitchDispatch::Dyn`] variant, which is also the differential
//! oracle: `CONTRA_DISPATCH=dyn` forces every built-in through the boxed
//! path, and the dispatch-parity tests prove both paths byte-identical.

use contra_baselines::{EcmpSwitch, HulaSwitch, SpSwitch, SpainSwitch};
use contra_dataplane::ContraSwitch;
use contra_sim::{Packet, SwitchCtx, SwitchLogic, Time};
use contra_topology::NodeId;
use std::any::Any;

/// How a [`Scenario`](crate::Scenario) dispatches switch logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Repack built-in switch programs into [`SwitchDispatch`]'s inline
    /// variants (static enum dispatch); unknown types stay boxed.
    #[default]
    Enum,
    /// Force everything — built-ins included — through the boxed
    /// [`SwitchDispatch::Dyn`] path. The differential oracle.
    Dyn,
}

impl DispatchMode {
    /// The `CONTRA_DISPATCH` override, if set and parseable.
    pub fn from_env() -> Option<DispatchMode> {
        DispatchMode::parse(&std::env::var("CONTRA_DISPATCH").ok()?)
    }

    /// Parses a `CONTRA_DISPATCH`-style value (the pure half of
    /// [`DispatchMode::from_env`]).
    pub fn parse(raw: &str) -> Option<DispatchMode> {
        match raw.trim() {
            "enum" | "static" => Some(DispatchMode::Enum),
            "dyn" | "boxed" | "oracle" => Some(DispatchMode::Dyn),
            _ => None,
        }
    }

    /// This value, unless `CONTRA_DISPATCH` overrides it (the env var
    /// always wins, so any binary or test run can be re-routed onto
    /// either dispatch path without a rebuild).
    pub fn or_env(self) -> DispatchMode {
        DispatchMode::from_env().unwrap_or(self)
    }
}

/// Every built-in switch program, inline, plus the boxed extension seam.
///
/// Variant sizes differ by design: the point of the enum is to store the
/// built-ins inline (no pointer chase, no vtable) in the engine's
/// per-switch `Vec`, where the logic is borrowed in place and never
/// moved per event — the size spread costs idle capacity per switch, not
/// per-event copies.
#[allow(clippy::large_enum_variant)]
pub enum SwitchDispatch {
    /// The synthesized Contra dataplane.
    Contra(ContraSwitch),
    /// The HULA baseline.
    Hula(HulaSwitch),
    /// Hash-based ECMP.
    Ecmp(EcmpSwitch),
    /// Static shortest paths.
    Sp(SpSwitch),
    /// SPAIN's VLAN-tagged multipath.
    Spain(SpainSwitch),
    /// Anything else — and, under `CONTRA_DISPATCH=dyn`, everything.
    Dyn(Box<dyn SwitchLogic>),
}

/// Moves the concrete `T` out of the box if (and only if) that is what
/// it holds. The `is` check runs on an upcast *reference* first: a
/// failed `Box<dyn Any>::downcast` would return `Box<dyn Any>` with the
/// `SwitchLogic` vtable already lost, making the fallback impossible.
fn try_take<T: SwitchLogic>(b: Box<dyn SwitchLogic>) -> Result<Box<T>, Box<dyn SwitchLogic>> {
    if (&*b as &dyn Any).is::<T>() {
        let any: Box<dyn Any> = b;
        Ok(any.downcast::<T>().expect("type checked above"))
    } else {
        Err(b)
    }
}

impl From<Box<dyn SwitchLogic>> for SwitchDispatch {
    /// Classifies an installed box into its inline variant; unknown
    /// logic types (custom systems) stay boxed.
    fn from(b: Box<dyn SwitchLogic>) -> SwitchDispatch {
        let b = match try_take::<ContraSwitch>(b) {
            Ok(s) => return SwitchDispatch::Contra(*s),
            Err(b) => b,
        };
        let b = match try_take::<HulaSwitch>(b) {
            Ok(s) => return SwitchDispatch::Hula(*s),
            Err(b) => b,
        };
        let b = match try_take::<EcmpSwitch>(b) {
            Ok(s) => return SwitchDispatch::Ecmp(*s),
            Err(b) => b,
        };
        let b = match try_take::<SpSwitch>(b) {
            Ok(s) => return SwitchDispatch::Sp(*s),
            Err(b) => b,
        };
        let b = match try_take::<SpainSwitch>(b) {
            Ok(s) => return SwitchDispatch::Spain(*s),
            Err(b) => b,
        };
        SwitchDispatch::Dyn(b)
    }
}

impl SwitchDispatch {
    /// Converts per `mode`: [`DispatchMode::Enum`] classifies into the
    /// inline variants, [`DispatchMode::Dyn`] keeps everything boxed.
    pub fn convert(b: Box<dyn SwitchLogic>, mode: DispatchMode) -> SwitchDispatch {
        match mode {
            DispatchMode::Enum => SwitchDispatch::from(b),
            DispatchMode::Dyn => SwitchDispatch::Dyn(b),
        }
    }
}

impl SwitchLogic for SwitchDispatch {
    fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: Packet, from: NodeId) {
        match self {
            SwitchDispatch::Contra(s) => s.on_packet(ctx, pkt, from),
            SwitchDispatch::Hula(s) => s.on_packet(ctx, pkt, from),
            SwitchDispatch::Ecmp(s) => s.on_packet(ctx, pkt, from),
            SwitchDispatch::Sp(s) => s.on_packet(ctx, pkt, from),
            SwitchDispatch::Spain(s) => s.on_packet(ctx, pkt, from),
            SwitchDispatch::Dyn(s) => s.on_packet(ctx, pkt, from),
        }
    }

    fn on_tick(&mut self, ctx: &mut SwitchCtx<'_>) {
        match self {
            SwitchDispatch::Contra(s) => s.on_tick(ctx),
            SwitchDispatch::Hula(s) => s.on_tick(ctx),
            SwitchDispatch::Ecmp(s) => s.on_tick(ctx),
            SwitchDispatch::Sp(s) => s.on_tick(ctx),
            SwitchDispatch::Spain(s) => s.on_tick(ctx),
            SwitchDispatch::Dyn(s) => s.on_tick(ctx),
        }
    }

    fn tick_interval(&self) -> Option<Time> {
        match self {
            SwitchDispatch::Contra(s) => s.tick_interval(),
            SwitchDispatch::Hula(s) => s.tick_interval(),
            SwitchDispatch::Ecmp(s) => s.tick_interval(),
            SwitchDispatch::Sp(s) => s.tick_interval(),
            SwitchDispatch::Spain(s) => s.tick_interval(),
            SwitchDispatch::Dyn(s) => s.tick_interval(),
        }
    }

    fn register_collisions(&self) -> (u64, u64) {
        match self {
            SwitchDispatch::Contra(s) => s.register_collisions(),
            SwitchDispatch::Hula(s) => s.register_collisions(),
            SwitchDispatch::Ecmp(s) => s.register_collisions(),
            SwitchDispatch::Sp(s) => s.register_collisions(),
            SwitchDispatch::Spain(s) => s.register_collisions(),
            SwitchDispatch::Dyn(s) => s.register_collisions(),
        }
    }

    fn control_churn(&self) -> (u64, u64) {
        match self {
            SwitchDispatch::Contra(s) => s.control_churn(),
            SwitchDispatch::Hula(s) => s.control_churn(),
            SwitchDispatch::Ecmp(s) => s.control_churn(),
            SwitchDispatch::Sp(s) => s.control_churn(),
            SwitchDispatch::Spain(s) => s.control_churn(),
            SwitchDispatch::Dyn(s) => s.control_churn(),
        }
    }

    fn reads_link_util(&self) -> bool {
        match self {
            SwitchDispatch::Contra(s) => s.reads_link_util(),
            SwitchDispatch::Hula(s) => s.reads_link_util(),
            SwitchDispatch::Ecmp(s) => s.reads_link_util(),
            SwitchDispatch::Sp(s) => s.reads_link_util(),
            SwitchDispatch::Spain(s) => s.reads_link_util(),
            SwitchDispatch::Dyn(s) => s.reads_link_util(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing() {
        assert_eq!(DispatchMode::parse("enum"), Some(DispatchMode::Enum));
        assert_eq!(DispatchMode::parse(" dyn "), Some(DispatchMode::Dyn));
        assert_eq!(DispatchMode::parse("boxed"), Some(DispatchMode::Dyn));
        assert_eq!(DispatchMode::parse("nonsense"), None);
    }

    fn tiny_sp() -> SpSwitch {
        let mut tb = contra_topology::Topology::builder();
        let s = tb.switch("s0");
        SpSwitch::new(&tb.build(), s)
    }

    #[test]
    fn builtin_boxes_classify_into_inline_variants() {
        let b: Box<dyn SwitchLogic> = Box::new(tiny_sp());
        assert!(matches!(
            SwitchDispatch::convert(b, DispatchMode::Enum),
            SwitchDispatch::Sp(_)
        ));
        let b: Box<dyn SwitchLogic> = Box::new(tiny_sp());
        assert!(matches!(
            SwitchDispatch::convert(b, DispatchMode::Dyn),
            SwitchDispatch::Dyn(_)
        ));
    }

    /// The failed-downcast path must hand the box back intact — losing
    /// the `SwitchLogic` vtable there would make the `Dyn` seam
    /// unusable for custom logic.
    #[test]
    fn unknown_logic_survives_classification() {
        struct Custom;
        impl SwitchLogic for Custom {
            fn on_packet(&mut self, ctx: &mut SwitchCtx<'_>, pkt: Packet, _from: NodeId) {
                ctx.drop_no_route(pkt);
            }
            fn tick_interval(&self) -> Option<Time> {
                Some(Time::us(7))
            }
        }
        let b: Box<dyn SwitchLogic> = Box::new(Custom);
        let d = SwitchDispatch::convert(b, DispatchMode::Enum);
        assert!(matches!(d, SwitchDispatch::Dyn(_)));
        assert_eq!(d.tick_interval(), Some(Time::us(7)));
    }
}
