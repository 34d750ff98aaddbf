//! The hierarchical `/stats` attribute tree.
//!
//! Telemetry is exposed as a directory tree of named attributes (the
//! sysfs `AttributeGroup` idiom): inner nodes are directories, leaves are
//! single values. The owner of a group of counters renders it from its
//! live atomics into a [`StatsNode`], which is then served by path —
//! resolving a leaf returns its value, resolving a directory returns a
//! listing (tree-shaped by default, flat `path value` lines on request).
//! A name that is not the tree's own goes in through [`escape_name`].

/// One node of the stats tree: a directory of named children (insertion
/// order preserved) or a single rendered value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsNode {
    /// An inner node; children are listed in insertion order.
    Dir(Vec<(String, StatsNode)>),
    /// A single attribute value.
    Leaf(String),
}

impl StatsNode {
    /// A leaf holding `value`'s display form.
    pub fn leaf(value: impl ToString) -> StatsNode {
        StatsNode::Leaf(value.to_string())
    }

    /// An empty directory.
    pub fn dir() -> StatsNode {
        StatsNode::Dir(Vec::new())
    }

    /// Adds (or replaces) child `name`; only meaningful on a `Dir`.
    pub fn insert(&mut self, name: impl Into<String>, node: StatsNode) {
        if let StatsNode::Dir(children) = self {
            let name = name.into();
            if let Some(existing) = children.iter_mut().find(|(n, _)| *n == name) {
                existing.1 = node;
            } else {
                children.push((name, node));
            }
        }
    }

    /// Builder form of [`StatsNode::insert`].
    pub fn with(mut self, name: impl Into<String>, node: StatsNode) -> StatsNode {
        self.insert(name, node);
        self
    }

    /// Resolves a `/`-separated path relative to this node. The empty
    /// path (or `"/"`) resolves to the node itself.
    pub fn resolve(&self, path: &str) -> Option<&StatsNode> {
        let mut node = self;
        for segment in path.split('/').filter(|s| !s.is_empty()) {
            match node {
                StatsNode::Dir(children) => {
                    node = children
                        .iter()
                        .find(|(name, _)| name == segment)
                        .map(|(_, child)| child)?;
                }
                StatsNode::Leaf(_) => return None,
            }
        }
        Some(node)
    }

    /// The numeric leaf at `path`; `None` when the path does not resolve
    /// to a leaf holding an unsigned integer.
    pub fn u64_at(&self, path: &str) -> Option<u64> {
        match self.resolve(path)? {
            StatsNode::Leaf(value) => value.parse().ok(),
            StatsNode::Dir(_) => None,
        }
    }

    /// Flat listing: one `path value` line per leaf under this node,
    /// paths relative to it.
    pub fn render_flat(&self) -> String {
        let mut out = String::new();
        self.flatten("", &mut out);
        out
    }

    fn flatten(&self, prefix: &str, out: &mut String) {
        match self {
            StatsNode::Leaf(value) => {
                out.push_str(prefix.trim_end_matches('/'));
                out.push(' ');
                out.push_str(value);
                out.push('\n');
            }
            StatsNode::Dir(children) => {
                for (name, child) in children {
                    let path = format!("{prefix}{name}/");
                    child.flatten(&path, out);
                }
            }
        }
    }

    /// Tree listing: directories end in `/`, leaves print `name = value`,
    /// nesting shown by two-space indentation.
    pub fn render_tree(&self) -> String {
        match self {
            StatsNode::Leaf(value) => {
                let mut s = value.clone();
                s.push('\n');
                s
            }
            StatsNode::Dir(_) => {
                let mut out = String::new();
                self.tree_lines(0, &mut out);
                out
            }
        }
    }

    fn tree_lines(&self, depth: usize, out: &mut String) {
        if let StatsNode::Dir(children) = self {
            for (name, child) in children {
                for _ in 0..depth {
                    out.push_str("  ");
                }
                match child {
                    StatsNode::Leaf(value) => {
                        out.push_str(name);
                        out.push_str(" = ");
                        out.push_str(value);
                        out.push('\n');
                    }
                    StatsNode::Dir(_) => {
                        out.push_str(name);
                        out.push_str("/\n");
                        child.tree_lines(depth + 1, out);
                    }
                }
            }
        }
    }
}

/// A name as one path segment: `%`, `/`, `?`, `&`, `=`, whitespace and
/// control characters are percent-encoded (each UTF-8 byte as `%XX`), so
/// a name read from a listing resolves back as the same segment and
/// keeps a flat `path value` line to two fields. Names that are not the
/// tree's own (a client's placement group) are listed through this.
pub fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        if "%/?&=".contains(c) || c.is_whitespace() || c.is_control() {
            for byte in c.encode_utf8(&mut [0; 4]).bytes() {
                out.push_str(&format!("%{byte:02X}"));
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Splits a stats path into its path and optional query parts
/// (`"groups/hot?top=4"` → `("groups/hot", Some("top=4"))`).
pub fn split_query(path: &str) -> (&str, Option<&str>) {
    match path.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (path, None),
    }
}

/// Looks up `key` in a `k=v&k=v` query string. A bare `k` with no `=`
/// reads as present with an empty value, so boolean flags can be
/// requested as `?flat`.
pub fn query_param<'a>(query: Option<&'a str>, key: &str) -> Option<&'a str> {
    query?
        .split('&')
        .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// Serves one stats request against a rendered tree: resolves `path` and
/// renders the result — a leaf as its bare value, a directory as a tree
/// listing (or flat `path value` lines when `flat` is set). `None` when
/// the path does not exist.
pub fn serve(tree: &StatsNode, path: &str, flat: bool) -> Option<String> {
    let node = tree.resolve(path)?;
    Some(match node {
        StatsNode::Dir(_) if flat => node.render_flat(),
        _ => node.render_tree(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatsNode {
        StatsNode::dir().with(
            "partitions",
            StatsNode::dir()
                .with(
                    "0",
                    StatsNode::dir()
                        .with("resident_objects", StatsNode::leaf(12))
                        .with(
                            "replication",
                            StatsNode::dir().with("lag", StatsNode::leaf(3)),
                        ),
                )
                .with(
                    "1",
                    StatsNode::dir().with("resident_objects", StatsNode::leaf(7)),
                ),
        )
    }

    #[test]
    fn resolves_paths_and_rejects_missing_ones() {
        let tree = sample();
        assert_eq!(
            tree.resolve("partitions/0/replication/lag"),
            Some(&StatsNode::Leaf("3".into()))
        );
        assert_eq!(tree.resolve(""), Some(&tree));
        assert!(tree.resolve("partitions/2").is_none());
        assert!(tree
            .resolve("partitions/0/resident_objects/deeper")
            .is_none());
    }

    #[test]
    fn flat_and_tree_renderings() {
        let tree = sample();
        let flat = tree.render_flat();
        assert!(flat.contains("partitions/0/replication/lag 3\n"));
        assert!(flat.contains("partitions/1/resident_objects 7\n"));
        let listing = tree.render_tree();
        assert!(listing.contains("partitions/\n"));
        assert!(listing.contains("    resident_objects = 12\n"));
        assert_eq!(
            serve(&tree, "partitions/0/replication/lag", false).as_deref(),
            Some("3\n")
        );
        assert!(serve(&tree, "nope", false).is_none());
    }

    #[test]
    fn query_helpers() {
        assert_eq!(
            split_query("groups/hot?top=4"),
            ("groups/hot", Some("top=4"))
        );
        assert_eq!(split_query("groups/hot"), ("groups/hot", None));
        assert_eq!(query_param(Some("top=4&flat=1"), "top"), Some("4"));
        assert_eq!(query_param(Some("top=4&flat=1"), "flat"), Some("1"));
        assert_eq!(query_param(Some("top=4"), "missing"), None);
        assert_eq!(query_param(None, "top"), None);
    }

    #[test]
    fn escaped_names_are_one_segment() {
        assert_eq!(escape_name("tour/3"), "tour%2F3");
        assert_eq!(escape_name("c d\n%?&=x"), "c%20d%0A%25%3F%26%3Dx");
        assert_eq!(escape_name("caf\u{e9}\u{2028}"), "caf\u{e9}%E2%80%A8");
        let tree = StatsNode::dir().with(escape_name("a/b c"), StatsNode::leaf(7));
        let flat = tree.render_flat();
        let (name, value) = flat.trim_end().split_once(' ').unwrap();
        assert_eq!(tree.u64_at(name), Some(7));
        assert_eq!(value, "7");
    }

    #[test]
    fn insert_replaces_existing_children() {
        let mut d = StatsNode::dir().with("a", StatsNode::leaf(1));
        d.insert("a", StatsNode::leaf(2));
        assert_eq!(d.resolve("a"), Some(&StatsNode::Leaf("2".into())));
    }
}
