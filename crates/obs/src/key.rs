//! Structured metric keys.
//!
//! Metrics are keyed by a name plus up to four dimensions — virtualization
//! level, exit reason, reflector kind and vCPU id — so a report or
//! dashboard can slice any count.

use std::fmt;

use svt_sim::snapshot::{load_code, load_new, Sink, Snap, SnapError, SnapReader};

/// The virtualization level an event belongs to.
///
/// Defined here (rather than reusing `svt_hv::Level`) because the
/// observability layer sits below the hypervisor in the dependency graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObsLevel {
    /// The host hypervisor.
    L0,
    /// The guest hypervisor.
    L1,
    /// The nested guest.
    L2,
    /// Machine-wide events not tied to one level (devices, wire, timers).
    Machine,
}

impl ObsLevel {
    /// All levels, in display order.
    pub const ALL: [ObsLevel; 4] = [ObsLevel::L0, ObsLevel::L1, ObsLevel::L2, ObsLevel::Machine];

    /// Short stable name used in reports and trace thread names.
    pub fn name(self) -> &'static str {
        match self {
            ObsLevel::L0 => "L0",
            ObsLevel::L1 => "L1",
            ObsLevel::L2 => "L2",
            ObsLevel::Machine => "machine",
        }
    }

    /// Chrome trace thread id: one lane per level.
    pub fn tid(self) -> u64 {
        match self {
            ObsLevel::L0 => 0,
            ObsLevel::L1 => 1,
            ObsLevel::L2 => 2,
            ObsLevel::Machine => 3,
        }
    }
}

impl fmt::Display for ObsLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A structured metric key: a metric name plus optional level, exit-reason,
/// reflector and vCPU dimensions.
///
/// # Examples
///
/// ```
/// use svt_obs::{MetricKey, ObsLevel};
///
/// let k = MetricKey::new("vm_exit").level(ObsLevel::L2).exit("CPUID");
/// assert_eq!(k.to_string(), "vm_exit{level=L2,exit=CPUID}");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricKey {
    /// The metric name, e.g. `"vm_exit"` or `"trap_latency"`.
    pub name: &'static str,
    /// Which virtualization level the event belongs to, if attributed.
    pub level: Option<ObsLevel>,
    /// The exit-reason name, if attributed (e.g. `"CPUID"`).
    pub exit_reason: Option<&'static str>,
    /// The reflector kind, if attributed (e.g. `"hw-svt"`).
    pub reflector: Option<&'static str>,
    /// The vCPU the event occurred on, if attributed.
    pub vcpu: Option<u32>,
}

/// The level is one byte, `1 + tid` (0 for none); the name and
/// dimension strings re-intern into leaked statics on load (the key
/// universe is the fixed set of in-tree metric names, so the interner
/// stays bounded).
impl Snap for MetricKey {
    fn save<S: Sink + ?Sized>(&self, w: &mut S) {
        let MetricKey {
            name,
            level,
            exit_reason,
            reflector,
            vcpu,
        } = *self;
        let level = level.map_or(0, |l| 1 + l.tid() as u8);
        (name, level, exit_reason, reflector, vcpu).save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.name.load(r)?;
        self.level = load_code(r, "metric key level", |t| match t {
            0 => Some(None),
            1 => Some(Some(ObsLevel::L0)),
            2 => Some(Some(ObsLevel::L1)),
            3 => Some(Some(ObsLevel::L2)),
            4 => Some(Some(ObsLevel::Machine)),
            _ => None,
        })?;
        (self.exit_reason, self.reflector, self.vcpu) = load_new(r)?;
        Ok(())
    }
}

impl MetricKey {
    /// A bare key with no dimensions.
    pub const fn new(name: &'static str) -> Self {
        MetricKey {
            name,
            level: None,
            exit_reason: None,
            reflector: None,
            vcpu: None,
        }
    }

    /// Attributes the key to a virtualization level.
    pub const fn level(mut self, level: ObsLevel) -> Self {
        self.level = Some(level);
        self
    }

    /// Attributes the key to an exit reason.
    pub const fn exit(mut self, exit_reason: &'static str) -> Self {
        self.exit_reason = Some(exit_reason);
        self
    }

    /// Attributes the key to a reflector kind.
    pub const fn reflector(mut self, reflector: &'static str) -> Self {
        self.reflector = Some(reflector);
        self
    }

    /// Attributes the key to a vCPU.
    pub const fn vcpu(mut self, vcpu: u32) -> Self {
        self.vcpu = Some(vcpu);
        self
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)?;
        if self.level.is_none()
            && self.exit_reason.is_none()
            && self.reflector.is_none()
            && self.vcpu.is_none()
        {
            return Ok(());
        }
        f.write_str("{")?;
        let mut first = true;
        let mut dim = |f: &mut fmt::Formatter<'_>, key: &str, val: &str| -> fmt::Result {
            if !first {
                f.write_str(",")?;
            }
            first = false;
            write!(f, "{key}={val}")
        };
        if let Some(level) = self.level {
            dim(f, "level", level.name())?;
        }
        if let Some(exit) = self.exit_reason {
            dim(f, "exit", exit)?;
        }
        if let Some(r) = self.reflector {
            dim(f, "reflector", r)?;
        }
        if let Some(v) = self.vcpu {
            if !first {
                f.write_str(",")?;
            }
            write!(f, "vcpu={v}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_key_displays_name_only() {
        assert_eq!(MetricKey::new("traps").to_string(), "traps");
    }

    #[test]
    fn dimensions_display_in_fixed_order() {
        let k = MetricKey::new("trap_latency")
            .reflector("baseline")
            .exit("CPUID")
            .level(ObsLevel::L2);
        assert_eq!(
            k.to_string(),
            "trap_latency{level=L2,exit=CPUID,reflector=baseline}"
        );
    }

    #[test]
    fn keys_are_comparable_and_hashable() {
        use std::collections::HashMap;
        let mut m = HashMap::new();
        let k = MetricKey::new("x").level(ObsLevel::L0);
        m.insert(k, 1u64);
        assert_eq!(m[&MetricKey::new("x").level(ObsLevel::L0)], 1);
        assert!(!m.contains_key(&MetricKey::new("x").level(ObsLevel::L1)));
    }

    #[test]
    fn vcpu_dimension_displays_last() {
        let k = MetricKey::new("vm_exit")
            .vcpu(3)
            .level(ObsLevel::L2)
            .exit("CPUID");
        assert_eq!(k.to_string(), "vm_exit{level=L2,exit=CPUID,vcpu=3}");
        assert_eq!(
            MetricKey::new("steps").vcpu(12).to_string(),
            "steps{vcpu=12}"
        );
    }

    #[test]
    fn vcpu_dimension_distinguishes_keys() {
        let a = MetricKey::new("vm_exit").vcpu(0);
        let b = MetricKey::new("vm_exit").vcpu(1);
        assert_ne!(a, b);
        assert_ne!(a, MetricKey::new("vm_exit"));
    }

    #[test]
    fn level_tids_are_distinct() {
        let tids: std::collections::HashSet<u64> = ObsLevel::ALL.iter().map(|l| l.tid()).collect();
        assert_eq!(tids.len(), ObsLevel::ALL.len());
    }
}
