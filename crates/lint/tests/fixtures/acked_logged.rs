// Fixture for the acked=>logged pass. The test asserts exact line
// numbers; keep the layout stable.

impl Handler {
    // pesos-lint: invariant(acked_logged)
    fn put(&self) -> Result<u64, Error> {
        let version = self.store.put()?;
        self.log.append(record(version));
        Ok(version)
    }

    // pesos-lint: invariant(acked_logged)
    fn put_async(&self) -> Result<u64, Error> {
        let op = self.store.put_async()?;
        Ok(op) // line 15: ack without a lexically earlier append
    }

    // pesos-lint: invariant(acked_logged)
    fn delete(&self) -> Result<(), Error> {
        let outcome = match self.store.delete() {
            Ok(v) => v,
            Err(e) => return Err(e),
        };
        self.owner.append(|| record(outcome));
        Ok(())
    }

    // pesos-lint: invariant(acked_logged)
    fn allowed(&self) -> Result<u64, Error> {
        // pesos-lint: allow(acked_logged, "replication is off on this path")
        Ok(0)
    }

    // pesos-lint: invariant(bogus) -- line 34: bad_allow, unknown invariant
    fn misnamed(&self) -> Result<(), Error> {
        Ok(())
    }

    fn unmarked_is_not_checked(&self) -> Result<u64, Error> {
        Ok(12)
    }
}
