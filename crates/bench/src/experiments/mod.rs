//! The experiment implementations, one module per table/figure.

pub mod chaos;
pub mod dist;
pub mod e2e;
pub mod fig1;
pub mod fig3;
pub mod library;
pub mod oversub;
pub mod sublinear;
pub mod table12;
pub mod table3;
