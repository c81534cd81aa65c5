pub fn record(buckets: &[u64], idx: Option<usize>) -> u64 {
    buckets[idx.unwrap()]
}

#[cfg(test)]
mod tests {
    #[test]
    fn records() {
        assert_eq!(super::record(&[7], Some(0)), 7);
        Some(1).unwrap();
    }
}
