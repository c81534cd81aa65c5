fn unchecked(x: Option<u32>) -> u32 {
    x.unwrap()
}

fn waived(x: Option<u32>) -> u32 {
    // lint:allow(no-unwrap-hot-path): fixture proves suppression works
    x.unwrap()
}
