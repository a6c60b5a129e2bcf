//! Stand-in for `serde_json` in the offline benchmark build. Every function
//! returns `Err`: a code path that needs real JSON fails loudly instead of
//! producing made-up output, so the benchmark must not call such paths.

use serde::de::DeserializeOwned;
use serde::Serialize;
use std::fmt;

#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json is not available in the offline benchmark build")
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
}

/// Accepts any `json!` input and yields `Value::Null`; the only consumer is
/// `to_string`, which fails anyway.
#[macro_export]
macro_rules! json {
    ($($t:tt)*) => {
        $crate::Value::Null
    };
}

pub fn to_string<T: ?Sized + Serialize>(_: &T) -> Result<String> {
    Err(Error)
}

pub fn to_string_pretty<T: ?Sized + Serialize>(_: &T) -> Result<String> {
    Err(Error)
}

pub fn to_vec<T: ?Sized + Serialize>(_: &T) -> Result<Vec<u8>> {
    Err(Error)
}

pub fn to_value<T: Serialize>(_: T) -> Result<Value> {
    Err(Error)
}

pub fn from_str<T: DeserializeOwned>(_: &str) -> Result<T> {
    Err(Error)
}
