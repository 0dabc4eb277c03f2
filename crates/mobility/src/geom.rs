//! Planar geometry primitives for node placement and radio range checks.

use std::fmt;

/// A point in the simulation plane, in meters.
///
/// # Example
///
/// ```
/// use mobility::Point;
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate in meters.
    pub x: f64,
    /// Vertical coordinate in meters.
    pub y: f64,
}

impl Point {
    /// Creates a point from coordinates in meters.
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other` in meters.
    pub fn distance(self, other: Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance (avoids the square root when only
    /// comparing against a squared threshold).
    pub fn distance_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Linear interpolation: the point a fraction `t` of the way from
    /// `self` to `other` (`t` in `[0, 1]`, unclamped).
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// The rectangular simulation field, anchored at the origin.
///
/// The paper uses a 2200 m x 600 m field for 100 nodes; the elongated shape
/// forces longer (more fragile) routes than a square field would.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Field {
    /// Field width in meters (x extent).
    pub width: f64,
    /// Field height in meters (y extent).
    pub height: f64,
}

impl Field {
    /// Creates a field of `width` x `height` meters.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not positive and finite.
    pub fn new(width: f64, height: f64) -> Self {
        assert!(
            width.is_finite() && width > 0.0 && height.is_finite() && height > 0.0,
            "invalid field {width}x{height}"
        );
        Field { width, height }
    }

    /// The 2200 m x 600 m field used throughout the paper's evaluation.
    pub fn paper() -> Self {
        Field::new(2200.0, 600.0)
    }

    /// Whether `p` lies inside the field (boundary inclusive).
    pub fn contains(&self, p: Point) -> bool {
        (0.0..=self.width).contains(&p.x) && (0.0..=self.height).contains(&p.y)
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.0}m x {:.0}m", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 7.5);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn distance_sq_matches_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance_sq(b), 25.0);
        assert_eq!(a.distance(b), 5.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -4.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point::new(5.0, -2.0));
    }

    #[test]
    fn field_contains_boundary() {
        let f = Field::new(100.0, 50.0);
        assert!(f.contains(Point::new(0.0, 0.0)));
        assert!(f.contains(Point::new(100.0, 50.0)));
        assert!(!f.contains(Point::new(100.1, 0.0)));
        assert!(!f.contains(Point::new(0.0, -0.1)));
    }

    #[test]
    fn paper_field_dimensions() {
        let f = Field::paper();
        assert_eq!(f.width, 2200.0);
        assert_eq!(f.height, 600.0);
    }

    #[test]
    #[should_panic(expected = "invalid field")]
    fn zero_field_rejected() {
        let _ = Field::new(0.0, 10.0);
    }
}
