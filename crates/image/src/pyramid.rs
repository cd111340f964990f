//! Image pyramids for coarse-to-fine Lucas–Kanade tracking.

use crate::gray::{FloatImage, GrayImage};

/// A multi-scale pyramid; level 0 is the full-resolution image and each
/// subsequent level halves both dimensions.
///
/// Each level is kept twice: as the `u8` image and as an `f32` plane
/// ([`plane`](Self::plane)) converted once when the level is built. The
/// KLT solve samples the planes, so a pyramid that serves as the next
/// frame's template is never converted again. Every `u8` is exact in
/// `f32`, so sampling a plane is bit-identical to sampling its level.
///
/// # Example
///
/// ```
/// use eudoxus_image::{GrayImage, Pyramid};
/// let img = GrayImage::filled(64, 48, 100);
/// let pyr = Pyramid::build(img, 3);
/// assert_eq!(pyr.levels(), 3);
/// assert_eq!(pyr.level(2).dimensions(), (16, 12));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Pyramid {
    levels: Vec<GrayImage>,
    /// `levels[i]` converted to `f32`, one plane per level.
    planes: Vec<FloatImage>,
}

impl Pyramid {
    /// Builds a pyramid with up to `max_levels` levels; stops early when a
    /// level would shrink below 8 pixels on a side.
    ///
    /// # Panics
    ///
    /// Panics if `max_levels == 0`.
    pub fn build(base: GrayImage, max_levels: usize) -> Self {
        assert!(max_levels > 0, "a pyramid needs at least one level");
        let mut levels = vec![base];
        while levels.len() < max_levels {
            let prev = levels.last().expect("non-empty");
            if prev.width() < 16 || prev.height() < 16 {
                break;
            }
            levels.push(prev.downsample_2x());
        }
        let planes = levels.iter().map(FloatImage::from_gray).collect();
        Pyramid { levels, planes }
    }

    /// A pyramid with no levels — the initial state of a reusable slot
    /// that [`rebuild_from`](Self::rebuild_from) fills each frame.
    pub fn empty() -> Self {
        Pyramid::default()
    }

    /// True when the pyramid holds no levels yet.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Rebuilds the pyramid from `base` in place, reusing every level
    /// buffer whose capacity still fits (zero heap allocations in the
    /// steady state of same-sized frames). The result is bit-identical to
    /// `Pyramid::build(base.clone(), max_levels)` — same level count, same
    /// pixels, same planes — without the base clone or the per-level
    /// allocations.
    ///
    /// # Panics
    ///
    /// Panics if `max_levels == 0`.
    pub fn rebuild_from(&mut self, base: &GrayImage, max_levels: usize) {
        assert!(max_levels > 0, "a pyramid needs at least one level");
        if self.levels.is_empty() {
            self.levels.push(GrayImage::default());
        }
        self.levels[0].copy_from(base);
        let mut built = 1;
        while built < max_levels {
            let (w, h) = self.levels[built - 1].dimensions();
            if w < 16 || h < 16 {
                break;
            }
            if self.levels.len() == built {
                self.levels.push(GrayImage::default());
            }
            let (finer, coarser) = self.levels.split_at_mut(built);
            finer[built - 1].downsample_2x_into(&mut coarser[0]);
            built += 1;
        }
        self.levels.truncate(built);
        self.planes.resize_with(built, FloatImage::default);
        for (plane, level) in self.planes.iter_mut().zip(&self.levels) {
            plane.copy_from_gray(level);
        }
    }

    /// Number of levels actually built.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Borrow level `i` (0 = full resolution).
    ///
    /// # Panics
    ///
    /// Panics if `i >= levels()`.
    pub fn level(&self, i: usize) -> &GrayImage {
        &self.levels[i]
    }

    /// Borrow level `i` as an `f32` plane (the same pixels, converted
    /// when the level was built).
    ///
    /// # Panics
    ///
    /// Panics if `i >= levels()`.
    pub fn plane(&self, i: usize) -> &FloatImage {
        &self.planes[i]
    }

    /// Scale factor of level `i` relative to level 0 (`2^i`).
    pub fn scale(&self, i: usize) -> f32 {
        (1u32 << i) as f32
    }

    /// Iterates levels from coarsest to finest — the order LK processes
    /// them.
    pub fn coarse_to_fine(&self) -> impl Iterator<Item = (usize, &GrayImage)> {
        (0..self.levels.len()).rev().map(move |i| (i, &self.levels[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_requested_levels() {
        let pyr = Pyramid::build(GrayImage::new(128, 128), 4);
        assert_eq!(pyr.levels(), 4);
        assert_eq!(pyr.level(0).dimensions(), (128, 128));
        assert_eq!(pyr.level(3).dimensions(), (16, 16));
    }

    #[test]
    fn stops_when_too_small() {
        let pyr = Pyramid::build(GrayImage::new(32, 32), 8);
        // 32 → 16 → 8, then 8 < 16 stops further halving.
        assert_eq!(pyr.levels(), 3);
        assert_eq!(pyr.level(2).dimensions(), (8, 8));
    }

    #[test]
    fn coarse_to_fine_order() {
        let pyr = Pyramid::build(GrayImage::new(64, 64), 3);
        let order: Vec<usize> = pyr.coarse_to_fine().map(|(i, _)| i).collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn rebuild_matches_build_and_reuses_buffers() {
        let img_a = GrayImage::from_fn(96, 64, |x, y| ((x * 7) ^ (y * 13)) as u8);
        let img_b = GrayImage::from_fn(96, 64, |x, y| (x * 3 + y * 29) as u8);
        let mut reused = Pyramid::empty();
        assert!(reused.is_empty());
        for img in [&img_a, &img_b, &img_a] {
            reused.rebuild_from(img, 3);
            let fresh = Pyramid::build(img.clone(), 3);
            assert_eq!(reused.levels(), fresh.levels());
            for i in 0..fresh.levels() {
                assert_eq!(reused.level(i), fresh.level(i), "level {i} differs");
                assert_eq!(reused.plane(i), fresh.plane(i), "plane {i} differs");
                assert_eq!(fresh.plane(i), &FloatImage::from_gray(fresh.level(i)));
            }
        }
    }

    #[test]
    fn rebuild_shrinks_level_count_when_base_shrinks() {
        let mut pyr = Pyramid::empty();
        pyr.rebuild_from(&GrayImage::new(128, 128), 4);
        assert_eq!(pyr.levels(), 4);
        pyr.rebuild_from(&GrayImage::new(32, 32), 4);
        assert_eq!(pyr.levels(), 3);
        assert_eq!(pyr.plane(2).width(), 8);
    }

    #[test]
    fn scale_doubles_per_level() {
        let pyr = Pyramid::build(GrayImage::new(64, 64), 3);
        assert_eq!(pyr.scale(0), 1.0);
        assert_eq!(pyr.scale(2), 4.0);
    }
}
