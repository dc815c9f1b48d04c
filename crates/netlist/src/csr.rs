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

    /// A matrix with no rows and room for `rows` rows of `items` items
    /// in all, for a caller that pushes rows whose total it can bound.
    pub(crate) fn with_capacity(rows: usize, items: usize) -> Csr<T> {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Csr {
            offsets,
            items: Vec::with_capacity(items),
        }
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
        let mut lens = vec![0u32; num_rows];
        items().for_each(|(row, _)| lens[row as usize] += 1);
        // Any item serves as the placeholder every slot is overwritten from.
        let Some((_, placeholder)) = items().next() else {
            return Csr {
                offsets: vec![0; num_rows + 1],
                items: Vec::new(),
            };
        };
        let mut fill = CsrFill::with_row_lens(lens, placeholder);
        items().for_each(|(row, item)| fill.push(row, item));
        fill.finish()
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

    /// Every row's items, row after row: what [`Csr::row_range`]
    /// positions index.
    #[must_use]
    #[inline]
    pub fn items(&self) -> &[T] {
        &self.items
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

    /// The matrix as two borrowed slices, for a hot loop that should
    /// index them without going through the `Vec`s.
    #[must_use]
    pub fn view(&self) -> CsrView<'_, T> {
        CsrView {
            offsets: &self.offsets,
            items: &self.items,
        }
    }

    /// Room for `additional` more rows.
    pub(crate) fn reserve_rows(&mut self, additional: usize) {
        self.offsets.reserve(additional);
    }

    /// Releases the capacity the matrix grew past its length.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.offsets.shrink_to_fit();
        self.items.shrink_to_fit();
    }
}

/// A borrowed [`Csr`]: its offset and item slices, with the same row
/// lookup. `Copy`, so an engine can hold one beside its own arrays.
#[derive(Debug, Clone, Copy)]
pub struct CsrView<'a, T = u32> {
    offsets: &'a [u32],
    items: &'a [T],
}

impl<'a, T> CsrView<'a, T> {
    /// The items of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    #[inline]
    pub fn row(self, i: usize) -> &'a [T] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// A [`Csr`] whose row lengths are known and whose items are still
/// arriving: the two halves of [`Csr::bucket`], apart, so that a caller
/// can size and fill several matrices in one walk over their source.
#[derive(Debug)]
pub(crate) struct CsrFill<T> {
    csr: Csr<T>,
    /// Where each row's next item goes.
    cursor: Vec<u32>,
}

impl<T: Copy> CsrFill<T> {
    /// Rows of the given lengths, every slot holding `placeholder` until
    /// [`CsrFill::push`] overwrites it.
    ///
    /// # Panics
    ///
    /// Panics if the lengths add up past `u32` capacity.
    pub(crate) fn with_row_lens(mut lens: Vec<u32>, placeholder: T) -> CsrFill<T> {
        let mut offsets = Vec::with_capacity(lens.len() + 1);
        let mut end = 0u32;
        offsets.push(end);
        // `lens` turns into the cursors: each row's start.
        for len in &mut lens {
            let start = end;
            end = end
                .checked_add(*len)
                .expect("CSR exceeds u32 item capacity");
            offsets.push(end);
            *len = start;
        }
        CsrFill {
            csr: Csr {
                offsets,
                items: vec![placeholder; end as usize],
            },
            cursor: lens,
        }
    }

    /// Appends `item` to `row`, which must not be full yet.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub(crate) fn push(&mut self, row: u32, item: T) {
        let at = &mut self.cursor[row as usize];
        debug_assert!(
            *at < self.csr.offsets[row as usize + 1],
            "row {row} is full"
        );
        self.csr.items[*at as usize] = item;
        *at += 1;
    }

    /// The matrix, every row filled.
    pub(crate) fn finish(self) -> Csr<T> {
        debug_assert!(
            self.cursor.iter().eq(&self.csr.offsets[1..]),
            "a row was left short"
        );
        self.csr
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
        let view = csr.view();
        assert!((0..3).all(|i| view.row(i) == csr.row(i)));
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
