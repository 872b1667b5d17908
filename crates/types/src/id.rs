//! Identifiers used across the FlexNet stack.
//!
//! The controller "names in-network apps by their URIs (instead of, say, IP
//! addresses)" (paper §3.4), so apps carry both a dense numeric [`AppId`]
//! (cheap to copy through the data plane) and a human-meaningful [`AppUri`]
//! used as the management handle.

use std::fmt;

macro_rules! numeric_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw numeric value.
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                $name(v)
            }
        }
    };
}

numeric_id!(
    /// A node in the physical topology: a switch, NIC, or host.
    NodeId,
    "node"
);
numeric_id!(
    /// A directed link between two topology nodes.
    LinkId,
    "link"
);
numeric_id!(
    /// A tenant of the shared infrastructure (paper §3, scenario).
    TenantId,
    "tenant"
);
numeric_id!(
    /// A dense numeric handle for an installed app instance.
    AppId,
    "app"
);

/// An 802.1Q VLAN identifier used for tenant isolation (paper §3: "Extension
/// programs are isolated from each other and from the infrastructure code
/// via, e.g., VLAN-based isolation mechanisms").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VlanId(pub u16);

impl VlanId {
    /// The VLAN ID space is 12 bits; 0 and 4095 are reserved by 802.1Q.
    pub const MIN: VlanId = VlanId(1);
    /// Largest assignable VLAN ID.
    pub const MAX: VlanId = VlanId(4094);

    /// Whether this VLAN ID is within the assignable 802.1Q range.
    pub fn is_valid(self) -> bool {
        self >= Self::MIN && self <= Self::MAX
    }
}

impl fmt::Display for VlanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vlan{}", self.0)
    }
}

/// A monotonically increasing version of an installed device program.
///
/// The hitless reconfiguration engine stamps every packet with the program
/// version that processed it, which is how the E1 experiment checks the
/// paper's consistency claim ("packets are either processed by the new
/// program or old one in a consistent manner", §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProgramVersion(pub u64);

impl ProgramVersion {
    /// The version of the initially installed program.
    pub const INITIAL: ProgramVersion = ProgramVersion(0);

    /// The next version after this one.
    pub fn next(self) -> ProgramVersion {
        ProgramVersion(self.0 + 1)
    }
}

impl fmt::Display for ProgramVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A URI naming an in-network app, e.g. `flexnet://tenant7/firewall`.
///
/// URIs are the first-class management handle in the controller API
/// (paper §3.4). The format is `flexnet://<authority>/<path>`, where the
/// authority is typically `infra` or a tenant name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppUri {
    authority: String,
    path: String,
}

impl AppUri {
    /// Builds a URI from an authority (owner) and a path (app name).
    ///
    /// Both parts must be non-empty and must not contain `/` (authority) or
    /// whitespace.
    pub fn new(authority: &str, path: &str) -> Option<AppUri> {
        if authority.is_empty()
            || path.is_empty()
            || authority.contains('/')
            || authority.chars().any(char::is_whitespace)
            || path.chars().any(char::is_whitespace)
        {
            return None;
        }
        Some(AppUri {
            authority: authority.to_string(),
            path: path.trim_matches('/').to_string(),
        })
    }

    /// Parses a full `flexnet://authority/path` URI string.
    pub fn parse(s: &str) -> Option<AppUri> {
        let rest = s.strip_prefix("flexnet://")?;
        let (authority, path) = rest.split_once('/')?;
        AppUri::new(authority, path)
    }

    /// The authority (owner) component, e.g. `infra` or `tenant7`.
    pub fn authority(&self) -> &str {
        &self.authority
    }

    /// The path (app name) component, e.g. `firewall`.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Convenience constructor for infrastructure-owned apps.
    pub fn infra(path: &str) -> AppUri {
        AppUri::new("infra", path).expect("static infra URI must be valid")
    }
}

impl fmt::Display for AppUri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flexnet://{}/{}", self.authority, self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_ids_display_with_prefix() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(TenantId(1).to_string(), "tenant1");
        assert_eq!(AppId(9).to_string(), "app9");
        assert_eq!(LinkId(0).to_string(), "link0");
    }

    #[test]
    fn vlan_range_checks() {
        assert!(!VlanId(0).is_valid());
        assert!(VlanId(1).is_valid());
        assert!(VlanId(4094).is_valid());
        assert!(!VlanId(4095).is_valid());
    }

    #[test]
    fn program_version_increments() {
        let v = ProgramVersion::INITIAL;
        assert_eq!(v.next(), ProgramVersion(1));
        assert_eq!(v.next().next().to_string(), "v2");
    }

    #[test]
    fn app_uri_round_trips() {
        let uri = AppUri::new("tenant7", "firewall").unwrap();
        assert_eq!(uri.to_string(), "flexnet://tenant7/firewall");
        assert_eq!(AppUri::parse("flexnet://tenant7/firewall"), Some(uri));
    }

    #[test]
    fn app_uri_rejects_malformed() {
        assert!(AppUri::new("", "x").is_none());
        assert!(AppUri::new("a", "").is_none());
        assert!(AppUri::new("a/b", "x").is_none());
        assert!(AppUri::new("a b", "x").is_none());
        assert!(AppUri::parse("http://a/b").is_none());
        assert!(AppUri::parse("flexnet://nopath").is_none());
    }

    #[test]
    fn app_uri_nested_path() {
        let uri = AppUri::parse("flexnet://infra/telemetry/sketch").unwrap();
        assert_eq!(uri.authority(), "infra");
        assert_eq!(uri.path(), "telemetry/sketch");
    }
}
