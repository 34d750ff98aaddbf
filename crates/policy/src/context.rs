//! Request context and object views consumed by the policy evaluator.

use std::collections::BTreeMap;
use std::sync::Arc;

use pesos_crypto::Certificate;

use crate::error::ViewFault;
use crate::interpreter::ObjectStoreView;
use crate::parser::{LOG_VAR, THIS_VAR};
use crate::value::{Value, ValueRef};

/// The operation a permission clause governs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operation {
    /// Retrieve an object.
    Read,
    /// Create or overwrite an object (including policy changes).
    Update,
    /// Delete an object (allowing its name to be reused).
    Delete,
}

impl Operation {
    /// Parses a permission keyword; `destroy` is accepted as an alias of
    /// `delete`, matching the paper's content-server example.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "read" => Some(Operation::Read),
            "update" | "write" => Some(Operation::Update),
            "delete" | "destroy" => Some(Operation::Delete),
            _ => None,
        }
    }

    /// The canonical keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            Operation::Read => "read",
            Operation::Update => "update",
            Operation::Delete => "delete",
        }
    }
}

/// Everything the evaluator may consult about the *request* being checked,
/// borrowed from wherever the caller already holds it: building one copies
/// nothing. [`RequestContext`] is the owning builder for callers that have
/// nothing to borrow from.
#[derive(Debug, Clone, Copy, Default)]
pub struct Request<'a> {
    /// Identity of the authenticated session (hex key fingerprint or any
    /// stable identifier the controller chooses).
    pub session_key: Option<&'a str>,
    /// Certificates presented alongside the request (`certificateSays`).
    pub certificates: &'a [Certificate],
    /// The controller's current time (seconds), used for certificate
    /// validity and freshness checks.
    pub now: u64,
    /// Freshness nonce previously issued by Pesos for time queries.
    pub freshness_nonce: Option<&'a [u8]>,
    /// The version number supplied with a put/update request
    /// (`nextVersion`).
    pub next_version: Option<u64>,
    /// Hash of the incoming object value (the "next" version's hash).
    pub new_object_hash: Option<&'a [u8]>,
    /// The `THIS` handle: the accessed object's key.
    pub this: Option<ValueRef<'a>>,
    /// The `LOG` handle: the key of the object's log. Only a policy with a
    /// [`crate::CompiledPolicy::log_slot`] reads it.
    pub log: Option<ValueRef<'a>>,
    /// Any other pre-bound variables, by name. The mode analysis knows only
    /// the two handles as bound on entry, so a name given here is compared
    /// where the policy would otherwise capture it.
    pub bindings: &'a [(String, Value)],
}

/// The owning form of a [`Request`], built up call by call.
#[derive(Debug, Clone, Default)]
pub struct RequestContext {
    /// The operation being attempted.
    pub operation: Option<Operation>,
    /// Identity of the authenticated session (hex key fingerprint or any
    /// stable identifier the controller chooses).
    pub session_key: Option<String>,
    /// Certificates presented alongside the request (`certificateSays`).
    pub certificates: Vec<Certificate>,
    /// The controller's current time (seconds), used for certificate
    /// validity and freshness checks.
    pub now: u64,
    /// Freshness nonce previously issued by Pesos for time queries.
    pub freshness_nonce: Option<Vec<u8>>,
    /// The version number supplied with a put/update request
    /// (`nextVersion`).
    pub next_version: Option<u64>,
    /// Hash of the incoming object value (the "next" version's hash).
    pub new_object_hash: Option<Vec<u8>>,
    /// The `THIS` handle, if bound.
    pub this: Option<Value>,
    /// The `LOG` handle, if bound.
    pub log: Option<Value>,
    /// Other pre-bound variables, by name.
    pub bindings: Vec<(String, Value)>,
}

impl RequestContext {
    /// Creates a context for `operation`.
    pub fn new(operation: Operation) -> Self {
        RequestContext {
            operation: Some(operation),
            ..RequestContext::default()
        }
    }

    /// Sets the authenticated session identity.
    pub fn with_session_key(mut self, key: impl Into<String>) -> Self {
        self.session_key = Some(key.into());
        self
    }

    /// Adds a presented certificate.
    pub fn with_certificate(mut self, cert: Certificate) -> Self {
        self.certificates.push(cert);
        self
    }

    /// Sets the controller time.
    pub fn with_now(mut self, now: u64) -> Self {
        self.now = now;
        self
    }

    /// Sets the version supplied by the request.
    pub fn with_next_version(mut self, version: u64) -> Self {
        self.next_version = Some(version);
        self
    }

    /// Sets the hash of the incoming value.
    pub fn with_new_object_hash(mut self, hash: Vec<u8>) -> Self {
        self.new_object_hash = Some(hash);
        self
    }

    /// Pre-binds a variable: one of the handles `THIS` and `LOG`, or any
    /// other name (see [`Request::bindings`]). Binding a name again replaces
    /// its value.
    pub fn bind(mut self, name: impl AsRef<str>, value: Value) -> Self {
        let name = name.as_ref();
        if name == THIS_VAR {
            self.this = Some(value);
        } else if name == LOG_VAR {
            self.log = Some(value);
        } else if let Some(bound) = self.bindings.iter_mut().find(|(n, _)| n == name) {
            bound.1 = value;
        } else {
            self.bindings.push((name.to_string(), value));
        }
        self
    }

    /// Sets the freshness nonce issued to the client.
    pub fn with_freshness_nonce(mut self, nonce: Vec<u8>) -> Self {
        self.freshness_nonce = Some(nonce);
        self
    }

    /// The borrowed form the evaluator takes.
    pub fn as_request(&self) -> Request<'_> {
        Request {
            session_key: self.session_key.as_deref(),
            certificates: &self.certificates,
            now: self.now,
            freshness_nonce: self.freshness_nonce.as_deref(),
            next_version: self.next_version,
            new_object_hash: self.new_object_hash.as_deref(),
            this: self.this.as_ref().map(Value::as_ref),
            log: self.log.as_ref().map(Value::as_ref),
            bindings: &self.bindings,
        }
    }
}

/// Facts about one version of one object, as used by [`StaticObjectView`].
#[derive(Debug, Clone, Default)]
pub struct ObjectFacts {
    /// Object size in bytes.
    pub size: u64,
    /// Hash of the object contents.
    pub hash: Vec<u8>,
    /// Hash of the policy associated with the object.
    pub policy_hash: Vec<u8>,
    /// The object contents (`objSays` reads its lines as tuples).
    pub contents: Arc<Vec<u8>>,
}

/// A simple in-memory [`ObjectStoreView`] used by tests and examples; it
/// never faults.
#[derive(Debug, Clone, Default)]
pub struct StaticObjectView {
    /// Facts per key and version; a key's latest version is its highest.
    pub objects: BTreeMap<String, BTreeMap<u64, ObjectFacts>>,
}

impl StaticObjectView {
    /// Creates an empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `facts` as version `version` of `key`.
    pub fn insert(&mut self, key: impl Into<String>, version: u64, facts: ObjectFacts) {
        self.objects
            .entry(key.into())
            .or_default()
            .insert(version, facts);
    }

    /// Convenience: records an object version from its raw contents.
    pub fn insert_contents(&mut self, key: impl Into<String>, version: u64, contents: &[u8]) {
        self.insert(
            key,
            version,
            ObjectFacts {
                size: contents.len() as u64,
                hash: pesos_crypto::sha256(contents).to_vec(),
                policy_hash: Vec::new(),
                contents: Arc::new(contents.to_vec()),
            },
        );
    }

    fn facts(&self, key: &str, version: u64) -> Option<&ObjectFacts> {
        self.objects.get(key)?.get(&version)
    }
}

impl ObjectStoreView for StaticObjectView {
    fn current_version(&self, key: &str) -> Result<Option<u64>, ViewFault> {
        let versions = self.objects.get(key);
        Ok(versions.and_then(|v| v.keys().next_back().copied()))
    }

    fn object_size(&self, key: &str, version: u64) -> Result<Option<u64>, ViewFault> {
        Ok(self.facts(key, version).map(|f| f.size))
    }

    fn object_hash(&self, key: &str, version: u64) -> Result<Option<Vec<u8>>, ViewFault> {
        Ok(self.facts(key, version).map(|f| f.hash.clone()))
    }

    fn policy_hash(&self, key: &str, version: u64) -> Result<Option<Vec<u8>>, ViewFault> {
        Ok(self.facts(key, version).map(|f| f.policy_hash.clone()))
    }

    fn object_contents(&self, key: &str, version: u64) -> Result<Option<Arc<Vec<u8>>>, ViewFault> {
        Ok(self.facts(key, version).map(|f| Arc::clone(&f.contents)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operation_parsing() {
        assert_eq!(Operation::parse("read"), Some(Operation::Read));
        assert_eq!(Operation::parse("UPDATE"), Some(Operation::Update));
        assert_eq!(Operation::parse("destroy"), Some(Operation::Delete));
        assert_eq!(Operation::parse("write"), Some(Operation::Update));
        assert_eq!(Operation::parse("fly"), None);
        assert_eq!(Operation::Read.as_str(), "read");
    }

    #[test]
    fn static_view_tracks_versions_and_facts() {
        let mut view = StaticObjectView::new();
        view.insert_contents("obj", 0, b"hello");
        view.insert_contents(
            "obj",
            1,
            b"read(\"obj\",0,\"alice\")\nwrite(\"obj\",0,\"bob\")",
        );

        assert_eq!(view.exists("obj"), Ok(true));
        assert_eq!(view.exists("other"), Ok(false));
        assert_eq!(view.current_version("obj"), Ok(Some(1)));
        assert_eq!(view.object_size("obj", 0), Ok(Some(5)));
        assert_eq!(
            view.object_hash("obj", 0).unwrap().unwrap(),
            pesos_crypto::sha256(b"hello").to_vec()
        );
        let contents = view.object_contents("obj", 1).unwrap().unwrap();
        let text = std::str::from_utf8(&contents).unwrap();
        let tuples: Vec<_> = text.lines().filter_map(crate::Tuple::parse).collect();
        assert_eq!(tuples.len(), 2);
        assert_eq!(tuples[0].name, "read");
        assert_eq!(view.object_contents("obj", 9), Ok(None));
    }

    #[test]
    fn context_builders() {
        let ctx = RequestContext::new(Operation::Update)
            .with_session_key("alice")
            .with_now(100)
            .with_next_version(3)
            .with_new_object_hash(vec![1, 2, 3])
            .with_freshness_nonce(vec![9])
            .bind("THIS", Value::Str("obj".into()));
        assert_eq!(ctx.operation, Some(Operation::Update));
        assert_eq!(ctx.session_key.as_deref(), Some("alice"));
        assert_eq!(ctx.next_version, Some(3));
        assert_eq!(ctx.this, Some(Value::Str("obj".into())));
        let request = ctx.as_request();
        assert_eq!(request.session_key, Some("alice"));
        assert_eq!(request.this, Some(ValueRef::Str("obj")));
        assert_eq!(request.log, None);
        // Any other name is kept by name; binding it again replaces it.
        let ctx = ctx.bind("X", Value::Int(1)).bind("X", Value::Int(2));
        assert_eq!(ctx.bindings, vec![("X".to_string(), Value::Int(2))]);
    }
}
