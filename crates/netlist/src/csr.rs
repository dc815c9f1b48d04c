//! Compressed sparse row (CSR) storage: the one adjacency container.
//!
//! Every row-of-lists structure in the workspace is a [`Csr`]: the
//! [`Netlist`](crate::Netlist)'s fanout and driver indices, the
//! channel groups' member and switch runs, the component dependency
//! graph and its strongly connected components, the simulator's gate
//! pin and reader tables. One contiguous `items` array is addressed
//! through `offsets`, so a row lookup is two loads and building one
//! costs two allocations whatever the number of rows.

use serde::{Deserialize, Serialize, Value};
use std::ops::Range;

/// A compressed sparse row matrix.
///
/// Row `i` is `items[offsets[i] .. offsets[i + 1]]`; `offsets` has one
/// more entry than there are rows. Serializes as a list of lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<T = u32> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for Csr<T> {
    /// A matrix with no rows.
    fn default() -> Csr<T> {
        Csr {
            offsets: vec![0],
            items: Vec::new(),
        }
    }
}

impl<T> Csr<T> {
    /// Builds a CSR from an iterator of rows.
    ///
    /// # Panics
    ///
    /// Panics if the items exceed `u32` capacity.
    pub fn from_rows<R, I>(rows: R) -> Csr<T>
    where
        R: IntoIterator<Item = I>,
        I: IntoIterator<Item = T>,
    {
        let mut csr = Csr::default();
        for row in rows {
            csr.push_row(row);
        }
        csr
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the items exceed `u32` capacity.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = T>) {
        self.items.extend(row);
        let end = u32::try_from(self.items.len()).expect("CSR exceeds u32 item capacity");
        self.offsets.push(end);
    }

    /// Counting sort of `items()` — each item tagged with its row — into
    /// `num_rows` rows, preserving the iteration order inside a row.
    /// `items` is walked twice: once to size the rows, once to fill them.
    ///
    /// # Panics
    ///
    /// Panics if a row tag is out of range or the items exceed `u32`
    /// capacity.
    pub fn bucket<I>(num_rows: usize, items: impl Fn() -> I) -> Csr<T>
    where
        T: Copy,
        I: Iterator<Item = (u32, T)>,
    {
        let mut offsets = vec![0u32; num_rows + 1];
        items().for_each(|(row, _)| offsets[row as usize + 1] += 1);
        for row in 0..num_rows {
            offsets[row + 1] = offsets[row]
                .checked_add(offsets[row + 1])
                .expect("CSR exceeds u32 item capacity");
        }
        // Any item serves as the placeholder every slot is overwritten from.
        let Some((_, placeholder)) = items().next() else {
            return Csr {
                offsets,
                items: Vec::new(),
            };
        };
        let mut flat = vec![placeholder; offsets[num_rows] as usize];
        let mut cursor = offsets[..num_rows].to_vec();
        items().for_each(|(row, item)| {
            let at = &mut cursor[row as usize];
            flat[*at as usize] = item;
            *at += 1;
        });
        Csr {
            offsets,
            items: flat,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn num_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Where row `i` sits in the flat item array (all rows, row by
    /// row). Side tables with one entry per item are indexed by these
    /// positions.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    #[inline]
    pub fn row_range(&self, i: usize) -> Range<usize> {
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// The items of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.items[self.row_range(i)]
    }

    /// All rows in order.
    pub fn rows(&self) -> impl Iterator<Item = &[T]> {
        (0..self.num_rows()).map(|i| self.row(i))
    }

    /// Length of row `i` without touching the items array.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Total number of stored items.
    #[must_use]
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Heap bytes held by the matrix.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.items.capacity() * std::mem::size_of::<T>()
    }
}

impl<T: Serialize> Serialize for Csr<T> {
    fn to_value(&self) -> Value {
        Value::Array(
            self.rows()
                .map(|row| Value::Array(row.iter().map(Serialize::to_value).collect()))
                .collect(),
        )
    }
}

impl<T: Deserialize> Deserialize for Csr<T> {
    fn from_value(value: &Value) -> Result<Csr<T>, serde::Error> {
        let rows = value
            .as_array()
            .ok_or_else(|| serde::Error::custom("expected an array of CSR rows"))?;
        let mut csr = Csr::default();
        for row in rows {
            let items = row
                .as_array()
                .ok_or_else(|| serde::Error::custom("CSR row must be an array"))?;
            for item in items {
                csr.items.push(T::from_value(item)?);
            }
            let end = u32::try_from(csr.items.len())
                .map_err(|_| serde::Error::custom("CSR exceeds u32 items"))?;
            csr.offsets.push(end);
        }
        Ok(csr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_round_trip() {
        let csr = Csr::from_rows(vec![vec![1u32, 2], vec![], vec![7]]);
        assert_eq!(csr.num_rows(), 3);
        assert_eq!(csr.row(0), &[1, 2]);
        assert_eq!(csr.row(1), &[] as &[u32]);
        assert_eq!(csr.row(2), &[7]);
        assert_eq!(csr.row_len(0), 2);
        assert_eq!(csr.row_range(2), 2..3);
        assert_eq!(csr.num_items(), 3);
    }

    #[test]
    fn bucket_keeps_iteration_order_inside_a_row() {
        let tagged = [(2u32, 'a'), (0, 'b'), (2, 'c'), (0, 'd'), (2, 'e')];
        let csr = Csr::bucket(4, || tagged.iter().copied());
        assert_eq!(csr.num_rows(), 4);
        assert_eq!(csr.row(0), ['b', 'd']);
        assert!(csr.row(1).is_empty());
        assert_eq!(csr.row(2), ['a', 'c', 'e']);
        assert!(csr.row(3).is_empty());
        let empty: Csr<char> = Csr::bucket(0, std::iter::empty);
        assert_eq!((empty.num_rows(), empty.num_items()), (0, 0));
    }

    #[test]
    fn serializes_as_nested_lists() {
        let csr = Csr::from_rows(vec![vec![1u32, 2], vec![], vec![7]]);
        let json = serde_json::to_string(&csr).unwrap();
        assert_eq!(json, "[[1,2],[],[7]]");
        assert_eq!(serde_json::from_str::<Csr>(&json).unwrap(), csr);
    }
}
