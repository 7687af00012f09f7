//! Domain-name utilities: subdomain tests and registrable-domain
//! ("effective second-level domain") computation.
//!
//! The paper reduces the whitelist's 3,544 fully qualified domains to
//! 1,990 *effective second-level domains* ("google.com is the effective
//! second-level domain of maps.google.com", Table 2). This module
//! implements that reduction over an embedded subset of the public-suffix
//! list covering every suffix that occurs in the synthetic corpus plus
//! the common multi-label suffixes seen in the real whitelist
//! (`co.uk`, `com.au`, `co.jp`, ...).

/// Multi-label public suffixes recognized in addition to single-label TLDs.
///
/// Any final label (e.g. `com`, `net`, `de`, `cm`, `io`) is always treated
/// as a public suffix; this table adds the two-label suffixes under which
/// registrations happen one level deeper.
const MULTI_LABEL_SUFFIXES: &[&str] = &[
    "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "net.uk", "com.au", "net.au", "org.au",
    "edu.au", "gov.au", "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp", "com.br", "net.br", "org.br",
    "co.in", "net.in", "org.in", "firm.in", "co.nz", "net.nz", "org.nz", "com.cn", "net.cn",
    "org.cn", "gov.cn", "com.tw", "org.tw", "com.mx", "org.mx", "co.za", "org.za", "com.ar",
    "com.tr", "com.sg", "com.hk", "com.my", "com.ph", "co.kr", "or.kr", "com.ua", "co.il",
    "com.pl", "com.ru", "com.vn", "com.eg", "com.sa",
];

/// Returns `true` when `host` equals `domain` or is a DNS subdomain of it.
///
/// This is the matching rule Adblock Plus applies for the `domain=` filter
/// option and the `||` host anchor: `cars.about.com` is a subdomain of
/// `about.com`, but `notabout.com` is not.
///
/// ```
/// use urlkit::is_same_or_subdomain_of;
/// assert!(is_same_or_subdomain_of("cars.about.com", "about.com"));
/// assert!(is_same_or_subdomain_of("about.com", "about.com"));
/// assert!(!is_same_or_subdomain_of("notabout.com", "about.com"));
/// ```
pub fn is_same_or_subdomain_of(host: &str, domain: &str) -> bool {
    if domain.is_empty() || host.len() < domain.len() {
        return false;
    }
    if !host.ends_with_ignore_case(domain) {
        return false;
    }
    host.len() == domain.len() || host.as_bytes()[host.len() - domain.len() - 1] == b'.'
}

trait EndsWithIgnoreCase {
    fn ends_with_ignore_case(&self, suffix: &str) -> bool;
}

impl EndsWithIgnoreCase for str {
    fn ends_with_ignore_case(&self, suffix: &str) -> bool {
        self.len() >= suffix.len()
            && self.as_bytes()[self.len() - suffix.len()..].eq_ignore_ascii_case(suffix.as_bytes())
    }
}

/// The number of labels occupied by the public suffix of `host`
/// (case-insensitive).
fn public_suffix_labels(host: &str) -> usize {
    if MULTI_LABEL_SUFFIXES
        .iter()
        .any(|suffix| is_same_or_subdomain_of(host, suffix))
    {
        2
    } else {
        1
    }
}

/// The registrable domain of `host` as a slice of `host` itself, in the
/// host's own case — the allocation-free form of
/// [`registrable_domain`]. Leading and trailing dots are ignored; a
/// host with an empty label, or with no label above its public suffix,
/// has none. Compare results with `eq_ignore_ascii_case`.
///
/// ```
/// use urlkit::registrable_suffix;
/// assert_eq!(registrable_suffix("Maps.Google.COM"), Some("Google.COM"));
/// assert_eq!(registrable_suffix(".www.google.co.uk."), Some("google.co.uk"));
/// assert_eq!(registrable_suffix("co.uk"), None);
/// assert_eq!(registrable_suffix("a..com"), None);
/// ```
pub fn registrable_suffix(host: &str) -> Option<&str> {
    let host = host.trim_matches('.');
    if host.is_empty() || host.contains("..") {
        return None;
    }
    // Keep the public suffix plus one label: everything after the
    // `keep`-th dot from the right, or the whole host when it has
    // exactly `keep` labels.
    let keep = public_suffix_labels(host) + 1;
    let mut dots = 0;
    for (i, b) in host.bytes().enumerate().rev() {
        if b == b'.' {
            dots += 1;
            if dots == keep {
                return Some(&host[i + 1..]);
            }
        }
    }
    (dots + 1 == keep).then_some(host)
}

/// Returns the registrable domain of `host` — the public suffix plus one
/// label — lowercased, or `None` when the host has no label above its
/// public suffix. See [`registrable_suffix`] for the borrowed form.
///
/// ```
/// use urlkit::registrable_domain;
/// assert_eq!(registrable_domain("maps.google.com"), Some("google.com".to_string()));
/// assert_eq!(registrable_domain("www.google.co.uk"), Some("google.co.uk".to_string()));
/// assert_eq!(registrable_domain("com"), None);
/// ```
pub fn registrable_domain(host: &str) -> Option<String> {
    registrable_suffix(host).map(str::to_ascii_lowercase)
}

/// Alias matching the paper's terminology: the *effective second-level
/// domain* of a fully qualified domain (Table 2's reduction).
pub fn effective_second_level_domain(host: &str) -> Option<String> {
    registrable_domain(host)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn subdomain_basic() {
        assert!(is_same_or_subdomain_of("www.reddit.com", "reddit.com"));
        assert!(is_same_or_subdomain_of("a.b.c.reddit.com", "reddit.com"));
        assert!(is_same_or_subdomain_of("reddit.com", "reddit.com"));
    }

    #[test]
    fn subdomain_rejects_suffix_collision() {
        // The classic pitfall: "evilreddit.com" ends with "reddit.com" as a
        // string but is not a subdomain.
        assert!(!is_same_or_subdomain_of("evilreddit.com", "reddit.com"));
        assert!(!is_same_or_subdomain_of(
            "reddit.com.evil.net",
            "reddit.com"
        ));
    }

    #[test]
    fn subdomain_is_case_insensitive() {
        assert!(is_same_or_subdomain_of("WWW.Reddit.COM", "reddit.com"));
        assert!(is_same_or_subdomain_of("www.reddit.com", "Reddit.Com"));
    }

    #[test]
    fn subdomain_empty_domain_is_false() {
        assert!(!is_same_or_subdomain_of("reddit.com", ""));
    }

    #[test]
    fn e2ld_single_label_suffix() {
        assert_eq!(registrable_domain("google.com"), Some("google.com".into()));
        assert_eq!(
            registrable_domain("maps.google.com"),
            Some("google.com".into())
        );
        assert_eq!(
            registrable_domain("cars.about.com"),
            Some("about.com".into())
        );
    }

    #[test]
    fn e2ld_multi_label_suffix() {
        assert_eq!(
            registrable_domain("google.co.uk"),
            Some("google.co.uk".into())
        );
        assert_eq!(
            registrable_domain("www.google.co.uk"),
            Some("google.co.uk".into())
        );
        assert_eq!(
            registrable_domain("kayak.com.au"),
            Some("kayak.com.au".into())
        );
    }

    #[test]
    fn e2ld_of_bare_suffix_is_none() {
        assert_eq!(registrable_domain("com"), None);
        assert_eq!(registrable_domain("co.uk"), None);
        assert_eq!(registrable_domain(""), None);
    }

    #[test]
    fn e2ld_handles_parked_typo_tlds() {
        // reddit.cm — the parked typo domain from §4.2.3.
        assert_eq!(registrable_domain("reddit.cm"), Some("reddit.cm".into()));
        assert_eq!(
            registrable_domain("www.reddit.cm"),
            Some("reddit.cm".into())
        );
    }

    #[test]
    fn e2ld_lowercases() {
        assert_eq!(
            registrable_domain("Maps.Google.COM"),
            Some("google.com".into())
        );
    }

    #[test]
    fn e2ld_rejects_empty_labels() {
        assert_eq!(registrable_domain("a..com"), None);
    }

    /// The label-vector implementation `registrable_domain` had before
    /// [`registrable_suffix`] existed, kept as the reference the
    /// borrowed helper must agree with.
    fn label_vector_reference(host: &str) -> Option<String> {
        let host = host.trim_matches('.');
        if host.is_empty() {
            return None;
        }
        let labels: Vec<&str> = host.split('.').collect();
        if labels.iter().any(|l| l.is_empty()) {
            return None;
        }
        let lower = host.to_ascii_lowercase();
        let suffix_labels = if MULTI_LABEL_SUFFIXES
            .iter()
            .any(|s| lower == *s || lower.ends_with(&format!(".{s}")))
        {
            2
        } else {
            1
        };
        if labels.len() <= suffix_labels {
            return None;
        }
        let keep = suffix_labels + 1;
        Some(labels[labels.len() - keep..].join(".").to_ascii_lowercase())
    }

    /// Asserts the borrowed helper and both owned forms agree on `host`,
    /// and that the helper's result is a label-aligned slice of `host`.
    pub(crate) fn assert_suffix_agrees(host: &str) {
        let borrowed = registrable_suffix(host);
        let want = label_vector_reference(host);
        assert_eq!(
            borrowed.map(str::to_ascii_lowercase),
            want,
            "registrable_suffix vs reference on {host:?}"
        );
        assert_eq!(
            registrable_domain(host),
            want,
            "registrable_domain on {host:?}"
        );
        if let Some(s) = borrowed {
            let trimmed = host.trim_matches('.');
            assert!(
                trimmed.len() == s.len()
                    || (trimmed.ends_with(s) && trimmed[..trimmed.len() - s.len()].ends_with('.')),
                "{s:?} is not a label-aligned suffix of {host:?}"
            );
        }
    }

    #[test]
    fn registrable_suffix_agrees_on_edge_cases() {
        for host in [
            "com",
            "co.uk",
            "CO.UK",
            "google.co.uk",
            "www.google.co.uk",
            "maps.google.com",
            "Maps.Google.COM",
            "WWW.Google.Co.Uk",
            "example.com.",
            ".example.com",
            "..example.com..",
            ".com",
            "com.",
            ".",
            "..",
            "",
            "a..com",
            "reddit.cm",
            "www.reddit.cm",
            "kayak.com.au",
            "com.au",
            "x.notco.uk",
            "localhost",
        ] {
            assert_suffix_agrees(host);
        }
        assert_eq!(registrable_suffix("Maps.Google.COM"), Some("Google.COM"));
        assert_eq!(registrable_suffix("example.com."), Some("example.com"));
        assert_eq!(registrable_suffix("com"), None);
        assert_eq!(registrable_suffix("co.uk"), None);
    }

    #[test]
    fn paper_table2_reduction_example() {
        // Table 2: "google.com is the effective second-level domain of
        // maps.google.com".
        assert_eq!(
            effective_second_level_domain("maps.google.com"),
            Some("google.com".into())
        );
    }
}
