//! The platform-wide flow-policy register: every magic cookie and
//! eviction-importance value in one place, so the precedence ladder is
//! auditable at a glance instead of scattered across controller and
//! apps.
//!
//! **Importance ladder** (what a full table sheds first, lowest first):
//! reactive churn (0) < fabric infrastructure (100) < control-plane
//! self-defense push-backs (150) < operator ACLs (200).
//!
//! **Cookie register** (who owns which flows in dumps, FLOW_REMOVED
//! notices, shadow digests, and per-cookie deletes): each subsystem has
//! a distinct prefix byte pattern so a flow dump reads like a routing
//! table of responsibilities.

/// Cookie carried by push-back drop rules so they are recognizable in
/// flow dumps, FLOW_REMOVED notices, and per-cookie stats.
pub const PUSHBACK_COOKIE: u64 = 0xDEFE_2E00;

/// Priority of push-back drop rules: above every forwarding app (L2
/// learning at 10, TE at 70–80, reactive forwarding at 100, the
/// proactive fabric at 200), so a pinned offender's frames are dropped
/// even where a rule would forward them, and below explicit ACL denies
/// (900) so operator policy still wins.
pub const PUSHBACK_PRIORITY: u16 = 500;

/// Eviction importance of push-back rules: a loaded table sheds churn
/// flows (importance 0) and even fabric rules (100) before it sheds
/// its own defenses, but operator ACLs (200) outrank them.
pub const PUSHBACK_IMPORTANCE: u16 = 150;

/// Cookie marking ACL flows.
pub const ACL_COOKIE: u64 = 0xac1c_0001;

/// Eviction importance of ACL deny rules: a security boundary outranks
/// everything else a table holds.
pub const ACL_IMPORTANCE: u16 = 200;

/// Cookie marking fabric flows.
pub const FABRIC_COOKIE: u64 = 0xfab0_0001;

/// Cookie marking fabric flows staged for an odd configuration epoch
/// (two-phase consistent updates alternate cookies by epoch parity so
/// the lame epoch can be garbage-collected by cookie).
pub const FABRIC_EPOCH_COOKIE: u64 = 0xfab0_0002;

/// Eviction importance of proactive fabric rules: standing
/// infrastructure outranks reactive churn under capacity pressure.
pub const FABRIC_IMPORTANCE: u16 = 100;

/// Cookie marking reactive-forwarding flows.
pub const REACTIVE_COOKIE: u64 = 0x5eac_0001;

/// Eviction importance of reactive microflows: pure churn, first to be
/// shed under table pressure (the implicit [`zen_dataplane::FlowSpec`]
/// default, named here so the ladder is complete).
pub const REACTIVE_IMPORTANCE: u16 = 0;

/// Cookie marking static TE flows (local delivery, own-site shortcut) —
/// never torn down by reconfiguration.
pub const TE_STATIC_COOKIE: u64 = 0x7e7e_0001;

/// Cookie for generation-0 tunnel state.
pub const TE_GEN0_COOKIE: u64 = 0x7e7e_0010;

/// Cookie for generation-1 tunnel state.
pub const TE_GEN1_COOKIE: u64 = 0x7e7e_0011;
