//! Validated geographic coordinates.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Errors produced when constructing geographic values.
#[derive(Debug, Clone, PartialEq)]
pub enum GeoError {
    /// Latitude outside `[-90, +90]` or not finite.
    InvalidLatitude(f64),
    /// Longitude outside `[-180, +180]` or not finite.
    InvalidLongitude(f64),
}

impl fmt::Display for GeoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeoError::InvalidLatitude(v) => {
                write!(f, "latitude {v} outside [-90, +90] or not finite")
            }
            GeoError::InvalidLongitude(v) => {
                write!(f, "longitude {v} outside [-180, +180] or not finite")
            }
        }
    }
}

impl std::error::Error for GeoError {}

/// A point on the Earth's surface: latitude and longitude in decimal
/// degrees (WGS-84 datum, the datum GPS reports).
///
/// Construction is validated, so any `GeoPoint` you hold is finite and in
/// range. The paper's attack moves these around freely — the Albuquerque
/// attacker "teleporting" to San Francisco is just two `GeoPoint`s
/// 1,500 km apart.
///
/// ```
/// use lbsn_geo::GeoPoint;
///
/// let albuquerque = GeoPoint::new(35.0844, -106.6504).unwrap();
/// let san_francisco = GeoPoint::new(37.7749, -122.4194).unwrap();
/// let d = lbsn_geo::distance(albuquerque, san_francisco);
/// assert!((d - 1_430_000.0).abs() < 30_000.0); // ~1,430 km apart
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    lat: f64,
    lon: f64,
}

impl GeoPoint {
    /// Creates a point from latitude and longitude in decimal degrees.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError`] if either coordinate is non-finite or out of
    /// range (`|lat| > 90`, `|lon| > 180`).
    pub fn new(lat: f64, lon: f64) -> Result<Self, GeoError> {
        if !lat.is_finite() || !(-90.0..=90.0).contains(&lat) {
            return Err(GeoError::InvalidLatitude(lat));
        }
        if !lon.is_finite() || !(-180.0..=180.0).contains(&lon) {
            return Err(GeoError::InvalidLongitude(lon));
        }
        Ok(GeoPoint { lat, lon })
    }

    /// A point from coordinates taken from valid points (such as a
    /// bounding box's edges), so [`GeoPoint::new`]'s checks cannot fail.
    pub(crate) fn from_valid(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint { lat, lon }
    }

    /// Latitude in decimal degrees, in `[-90, +90]`.
    pub fn lat(self) -> f64 {
        self.lat
    }

    /// Longitude in decimal degrees, in `[-180, +180]`.
    pub fn lon(self) -> f64 {
        self.lon
    }

    /// Latitude in radians.
    pub fn lat_rad(self) -> f64 {
        self.lat.to_radians()
    }

    /// Longitude in radians.
    pub fn lon_rad(self) -> f64 {
        self.lon.to_radians()
    }

    /// Returns a point offset by the given number of degrees, clamping
    /// latitude into range and wrapping longitude across the antimeridian.
    ///
    /// This mirrors how the paper's semi-automatic cheating tool moves in
    /// fixed 0.005° steps ("move 500 yards to the west") regardless of
    /// where on the globe it is.
    pub fn offset_degrees(self, dlat: f64, dlon: f64) -> GeoPoint {
        let lat = (self.lat + dlat).clamp(-90.0, 90.0);
        let mut lon = self.lon + dlon;
        while lon > 180.0 {
            lon -= 360.0;
        }
        while lon < -180.0 {
            lon += 360.0;
        }
        GeoPoint { lat, lon }
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lat, self.lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_coordinates() {
        let p = GeoPoint::new(35.0844, -106.6504).unwrap();
        assert_eq!(p.lat(), 35.0844);
        assert_eq!(p.lon(), -106.6504);
    }

    #[test]
    fn accepts_boundary_coordinates() {
        assert!(GeoPoint::new(90.0, 180.0).is_ok());
        assert!(GeoPoint::new(-90.0, -180.0).is_ok());
        assert!(GeoPoint::new(0.0, 0.0).is_ok());
    }

    #[test]
    fn rejects_out_of_range_latitude() {
        assert_eq!(
            GeoPoint::new(90.01, 0.0),
            Err(GeoError::InvalidLatitude(90.01))
        );
        assert_eq!(
            GeoPoint::new(-91.0, 0.0),
            Err(GeoError::InvalidLatitude(-91.0))
        );
    }

    #[test]
    fn rejects_out_of_range_longitude() {
        assert_eq!(
            GeoPoint::new(0.0, 180.5),
            Err(GeoError::InvalidLongitude(180.5))
        );
    }

    #[test]
    fn rejects_non_finite() {
        assert!(GeoPoint::new(f64::NAN, 0.0).is_err());
        assert!(GeoPoint::new(0.0, f64::INFINITY).is_err());
        assert!(GeoPoint::new(f64::NEG_INFINITY, 0.0).is_err());
    }

    #[test]
    fn offset_wraps_longitude() {
        let p = GeoPoint::new(0.0, 179.9).unwrap();
        let q = p.offset_degrees(0.0, 0.2);
        assert!((q.lon() - (-179.9)).abs() < 1e-9);
        let r = GeoPoint::new(0.0, -179.9)
            .unwrap()
            .offset_degrees(0.0, -0.2);
        assert!((r.lon() - 179.9).abs() < 1e-9);
    }

    #[test]
    fn offset_clamps_latitude() {
        let p = GeoPoint::new(89.9, 0.0).unwrap();
        assert_eq!(p.offset_degrees(1.0, 0.0).lat(), 90.0);
        let q = GeoPoint::new(-89.9, 0.0).unwrap();
        assert_eq!(q.offset_degrees(-1.0, 0.0).lat(), -90.0);
    }

    #[test]
    fn display_is_readable() {
        let p = GeoPoint::new(37.8080, -122.4177).unwrap();
        assert_eq!(p.to_string(), "(37.808000, -122.417700)");
    }

    #[test]
    fn error_display() {
        let e = GeoError::InvalidLatitude(99.0);
        assert!(e.to_string().contains("latitude 99"));
    }
}
