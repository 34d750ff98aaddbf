#![cfg(test)]
// Fixture for a test module that lives in its own file: the inner
// attribute marks the whole file as test code, so panic-freedom has
// nothing to report here.

fn helper() -> u32 {
    let v: Vec<u32> = Vec::new();
    v[0] + "7".parse::<u32>().unwrap()
}
