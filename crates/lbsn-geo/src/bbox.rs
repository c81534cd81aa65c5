//! Axis-aligned geographic bounding boxes.

use serde::{Deserialize, Serialize};

use crate::{equirectangular_distance, GeoError, GeoPoint, Meters, METERS_PER_DEGREE_LAT};

/// An axis-aligned latitude/longitude rectangle.
///
/// Used for the Fig 3.4 silhouette checks (the crawled Starbucks map must
/// span the continental US plus Alaska and Hawaii) and for the rapid-fire
/// rule's 180 m × 180 m square test.
///
/// Boxes do not cross the antimeridian; all the paper's geography is
/// US-centric so this restriction never bites, and it keeps `contains`
/// trivially correct.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    min_lat: f64,
    max_lat: f64,
    min_lon: f64,
    max_lon: f64,
}

impl BoundingBox {
    /// Creates a box from inclusive corner coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError`] if any bound is out of range, or if the
    /// minimum exceeds the maximum on either axis.
    pub fn new(min_lat: f64, max_lat: f64, min_lon: f64, max_lon: f64) -> Result<Self, GeoError> {
        // Reuse GeoPoint validation for range/finiteness checks.
        GeoPoint::new(min_lat, min_lon)?;
        GeoPoint::new(max_lat, max_lon)?;
        if min_lat > max_lat {
            return Err(GeoError::InvalidLatitude(min_lat));
        }
        if min_lon > max_lon {
            return Err(GeoError::InvalidLongitude(min_lon));
        }
        Ok(BoundingBox {
            min_lat,
            max_lat,
            min_lon,
            max_lon,
        })
    }

    /// The smallest box containing every point in the iterator, or `None`
    /// for an empty iterator.
    pub fn enclosing<I: IntoIterator<Item = GeoPoint>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let mut b = BoundingBox::point(it.next()?);
        for p in it {
            b.extend(p);
        }
        Some(b)
    }

    /// The degenerate box holding only `p`.
    pub fn point(p: GeoPoint) -> Self {
        BoundingBox {
            min_lat: p.lat(),
            max_lat: p.lat(),
            min_lon: p.lon(),
            max_lon: p.lon(),
        }
    }

    /// Grows the box just enough to contain `p`.
    pub fn extend(&mut self, p: GeoPoint) {
        self.min_lat = self.min_lat.min(p.lat());
        self.max_lat = self.max_lat.max(p.lat());
        self.min_lon = self.min_lon.min(p.lon());
        self.max_lon = self.max_lon.max(p.lon());
    }

    /// Whether `p` lies inside the box (inclusive).
    pub fn contains(&self, p: GeoPoint) -> bool {
        (self.min_lat..=self.max_lat).contains(&p.lat())
            && (self.min_lon..=self.max_lon).contains(&p.lon())
    }

    /// Minimum (southern) latitude.
    pub fn min_lat(&self) -> f64 {
        self.min_lat
    }

    /// Maximum (northern) latitude.
    pub fn max_lat(&self) -> f64 {
        self.max_lat
    }

    /// Minimum (western) longitude.
    pub fn min_lon(&self) -> f64 {
        self.min_lon
    }

    /// Maximum (eastern) longitude.
    pub fn max_lon(&self) -> f64 {
        self.max_lon
    }

    /// Latitude span in degrees.
    pub fn lat_span(&self) -> f64 {
        self.max_lat - self.min_lat
    }

    /// Longitude span in degrees.
    pub fn lon_span(&self) -> f64 {
        self.max_lon - self.min_lon
    }

    /// The side, in metres, of the smallest square the box fits in: the
    /// larger of its north–south and east–west extents. East–west metres
    /// shrink with latitude, so that extent is measured along the box's
    /// centre latitude.
    pub fn square_extent_m(&self) -> Meters {
        let lat_m = self.lat_span() * METERS_PER_DEGREE_LAT;
        let center_lat = (self.min_lat + self.max_lat) / 2.0;
        let lon_m = equirectangular_distance(
            GeoPoint::from_valid(center_lat, self.min_lon),
            GeoPoint::from_valid(center_lat, self.max_lon),
        );
        lat_m.max(lon_m)
    }

    /// The box's centre point.
    pub fn center(&self) -> GeoPoint {
        GeoPoint::new(
            (self.min_lat + self.max_lat) / 2.0,
            (self.min_lon + self.max_lon) / 2.0,
        )
        .expect("center of a valid box is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn contains_inclusive_edges() {
        let b = BoundingBox::new(30.0, 40.0, -110.0, -100.0).unwrap();
        assert!(b.contains(p(30.0, -110.0)));
        assert!(b.contains(p(40.0, -100.0)));
        assert!(b.contains(p(35.0, -105.0)));
        assert!(!b.contains(p(29.999, -105.0)));
        assert!(!b.contains(p(35.0, -99.999)));
    }

    #[test]
    fn rejects_inverted_bounds() {
        assert!(BoundingBox::new(40.0, 30.0, -110.0, -100.0).is_err());
        assert!(BoundingBox::new(30.0, 40.0, -100.0, -110.0).is_err());
    }

    #[test]
    fn enclosing_of_points() {
        let b = BoundingBox::enclosing([p(35.0, -106.0), p(37.0, -122.0), p(30.0, -90.0)]).unwrap();
        assert_eq!(b.min_lat(), 30.0);
        assert_eq!(b.max_lat(), 37.0);
        assert_eq!(b.min_lon(), -122.0);
        assert_eq!(b.max_lon(), -90.0);
        assert!(b.contains(p(35.0, -106.0)));
    }

    #[test]
    fn enclosing_empty_is_none() {
        assert!(BoundingBox::enclosing(std::iter::empty()).is_none());
    }

    #[test]
    fn square_extent_is_the_larger_side() {
        let base = p(35.0844, -106.6504);
        let mut b = BoundingBox::point(base);
        assert_eq!(b.square_extent_m(), 0.0);
        b.extend(crate::destination(base, 90.0, 100.0));
        b.extend(crate::destination(base, 0.0, 150.0));
        let ext = b.square_extent_m();
        assert!((ext - 150.0).abs() < 5.0, "extent {ext}");
    }

    #[test]
    fn spans_and_center() {
        let b = BoundingBox::new(30.0, 40.0, -110.0, -100.0).unwrap();
        assert_eq!(b.lat_span(), 10.0);
        assert_eq!(b.lon_span(), 10.0);
        assert_eq!(b.center(), p(35.0, -105.0));
    }
}
