//! The parsed form of a BGP route: one prefix's attributes, decoded out
//! of an UPDATE's attribute list and re-encodable back into one.

use dbgp_wire::attrs::{code, AsPath, Origin, PathAttribute};
use dbgp_wire::error::{WireError, WireResult};
use dbgp_wire::Ipv4Addr;

/// A route: everything BGP knows about one path to one prefix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Route {
    /// ORIGIN attribute.
    pub origin: Origin,
    /// AS_PATH attribute.
    pub as_path: AsPath,
    /// NEXT_HOP attribute.
    pub next_hop: Ipv4Addr,
    /// MULTI_EXIT_DISC, if present.
    pub med: Option<u32>,
    /// LOCAL_PREF, if present (iBGP / local policy only).
    pub local_pref: Option<u32>,
    /// Community tags.
    pub communities: Vec<u32>,
    /// Attributes we carry but do not interpret, including optional
    /// transitive unknowns that must be passed through.
    pub extras: Vec<PathAttribute>,
}

/// Default LOCAL_PREF assumed when the attribute is absent.
pub const DEFAULT_LOCAL_PREF: u32 = 100;

impl Route {
    /// A locally originated route (empty AS path).
    pub fn originated(next_hop: Ipv4Addr) -> Self {
        Route {
            origin: Origin::Igp,
            as_path: AsPath::empty(),
            next_hop,
            med: None,
            local_pref: None,
            communities: Vec::new(),
            extras: Vec::new(),
        }
    }

    /// Parse from an UPDATE's attribute list. Errors if a mandatory
    /// attribute is missing.
    pub fn from_attrs(attrs: &[PathAttribute]) -> WireResult<Self> {
        let mut origin = None;
        let mut as_path = None;
        let mut next_hop = None;
        let mut med = None;
        let mut local_pref = None;
        let mut communities = Vec::new();
        let mut extras = Vec::new();
        for attr in attrs {
            match attr {
                PathAttribute::Origin(o) => origin = Some(*o),
                PathAttribute::AsPath(p) => as_path = Some(p.clone()),
                PathAttribute::NextHop(a) => next_hop = Some(*a),
                PathAttribute::Med(v) => med = Some(*v),
                PathAttribute::LocalPref(v) => local_pref = Some(*v),
                PathAttribute::Communities(cs) => communities = cs.clone(),
                other => extras.push(other.clone()),
            }
        }
        Ok(Route {
            origin: origin.ok_or(WireError::MissingWellKnownAttribute(code::ORIGIN))?,
            as_path: as_path.ok_or(WireError::MissingWellKnownAttribute(code::AS_PATH))?,
            next_hop: next_hop.ok_or(WireError::MissingWellKnownAttribute(code::NEXT_HOP))?,
            med,
            local_pref,
            communities,
            extras,
        })
    }

    /// Re-encode as an attribute list. `include_local_pref` should be
    /// true only toward iBGP peers.
    pub fn to_attrs(&self, include_local_pref: bool) -> Vec<PathAttribute> {
        let mut attrs = vec![
            PathAttribute::Origin(self.origin),
            PathAttribute::AsPath(self.as_path.clone()),
            PathAttribute::NextHop(self.next_hop),
        ];
        if let Some(med) = self.med {
            attrs.push(PathAttribute::Med(med));
        }
        if include_local_pref {
            if let Some(lp) = self.local_pref {
                attrs.push(PathAttribute::LocalPref(lp));
            }
        }
        if !self.communities.is_empty() {
            attrs.push(PathAttribute::Communities(self.communities.clone()));
        }
        for extra in &self.extras {
            if extra.is_transitive() {
                attrs.push(extra.clone());
            }
        }
        attrs
    }

    /// Effective LOCAL_PREF for the decision process.
    pub fn effective_local_pref(&self) -> u32 {
        self.local_pref.unwrap_or(DEFAULT_LOCAL_PREF)
    }

    /// The route as it should be advertised to an eBGP neighbor: our AS
    /// prepended, NEXT_HOP rewritten, LOCAL_PREF and non-transitive MED
    /// stripped.
    pub fn for_ebgp_export(&self, local_as: u32, local_addr: Ipv4Addr) -> Self {
        let mut out = self.clone();
        out.as_path.prepend(local_as);
        out.next_hop = local_addr;
        out.local_pref = None;
        out.med = None;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dbgp_wire::attrs::FLAG_OPTIONAL;
    use dbgp_wire::attrs::FLAG_TRANSITIVE;

    fn sample() -> Route {
        Route {
            origin: Origin::Igp,
            as_path: AsPath::from_sequence(vec![10, 20]),
            next_hop: Ipv4Addr::new(192, 0, 2, 1),
            med: Some(5),
            local_pref: Some(150),
            communities: vec![0xdead_beef],
            extras: vec![PathAttribute::Unknown {
                flags: FLAG_OPTIONAL | FLAG_TRANSITIVE,
                code: 77,
                data: Bytes::from_static(b"x"),
            }],
        }
    }

    #[test]
    fn attrs_roundtrip_with_local_pref() {
        let route = sample();
        let attrs = route.to_attrs(true);
        let back = Route::from_attrs(&attrs).unwrap();
        assert_eq!(back, route);
    }

    #[test]
    fn ebgp_attrs_omit_local_pref() {
        let attrs = sample().to_attrs(false);
        assert!(!attrs.iter().any(|a| matches!(a, PathAttribute::LocalPref(_))));
    }

    #[test]
    fn from_attrs_requires_mandatory() {
        let err = Route::from_attrs(&[PathAttribute::Origin(Origin::Igp)]);
        assert!(matches!(err, Err(WireError::MissingWellKnownAttribute(_))));
    }

    #[test]
    fn non_transitive_extras_dropped_on_export() {
        let mut route = sample();
        route.extras.push(PathAttribute::Unknown {
            flags: FLAG_OPTIONAL, // non-transitive
            code: 88,
            data: Bytes::from_static(b"y"),
        });
        let attrs = route.to_attrs(true);
        assert!(attrs.iter().any(|a| a.code() == 77));
        assert!(!attrs.iter().any(|a| a.code() == 88));
    }

    #[test]
    fn ebgp_export_prepends_and_rewrites() {
        let out = sample().for_ebgp_export(65000, Ipv4Addr::new(10, 9, 9, 9));
        assert_eq!(out.as_path.first_as(), Some(65000));
        assert_eq!(out.as_path.hop_count(), 3);
        assert_eq!(out.next_hop, Ipv4Addr::new(10, 9, 9, 9));
        assert_eq!(out.local_pref, None);
        assert_eq!(out.med, None);
    }

    #[test]
    fn default_local_pref_is_100() {
        let mut route = sample();
        route.local_pref = None;
        assert_eq!(route.effective_local_pref(), DEFAULT_LOCAL_PREF);
    }
}
