//! An unbalanced brace defeats the item parser, so the lock-flow pass
//! cannot see the single-function inversion below; it reports the
//! whole file as unchecked instead of passing it.

fn tangled(server: &Server) {
    let a = server.venues.write_shard(1);
    let b = server.users.read_shard(2);
}
}
