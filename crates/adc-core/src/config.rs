//! Configuration for an ADC proxy agent.

use crate::error::ConfigError;

/// How admission thresholds treat the age of the resident worst entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AgingMode {
    /// Compare candidates against the *aged* average of the worst resident
    /// entry, `(avg + (now - last)) / 2` (Figure 4 of the paper). This is
    /// the paper's scheme: stale residents become easier to displace.
    #[default]
    AgedWorst,
    /// Compare against the stored average only (ablation A2).
    Off,
}

impl AgingMode {
    /// Returns `true` when aged comparisons are enabled.
    pub fn is_aged(self) -> bool {
        matches!(self, AgingMode::AgedWorst)
    }
}

/// Which caching policy the proxy runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// The paper's selective caching: an object is cached only when its
    /// average inter-request time beats the worst entry of the caching
    /// table.
    #[default]
    Selective,
    /// Cache every object that passes by, evicting least-recently-used
    /// (what the paper says hierarchical/hashing systems do; ablation A1).
    LruAll,
}

/// Configuration of one ADC proxy.
///
/// Defaults are the paper's experiment settings (§V.2): 20k single-table,
/// 20k multiple-table, 10k caching table.
///
/// # Examples
///
/// ```
/// use adc_core::AdcConfig;
///
/// let config = AdcConfig::builder()
///     .single_capacity(5_000)
///     .multiple_capacity(10_000)
///     .cache_capacity(10_000)
///     .max_hops(8)
///     .build();
/// assert_eq!(config.single_capacity, 5_000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdcConfig {
    /// Capacity of the single-table (paper default: 20 000).
    pub single_capacity: usize,
    /// Capacity of the multiple-table (paper default: 20 000).
    pub multiple_capacity: usize,
    /// Capacity of the caching table, i.e. the number of objects whose
    /// data is stored locally (paper default: 10 000).
    pub cache_capacity: usize,
    /// Maximum number of proxy-to-proxy forwardings before the next proxy
    /// sends the request to the origin server ("a maximum number of
    /// forwarding can be set").
    pub max_hops: u32,
    /// Whether admission comparisons age the resident worst entry.
    pub aging: AgingMode,
    /// Selective caching (paper) or cache-everything LRU (ablation).
    pub policy: CachePolicy,
}

impl Default for AdcConfig {
    fn default() -> Self {
        AdcConfig {
            single_capacity: 20_000,
            multiple_capacity: 20_000,
            cache_capacity: 10_000,
            max_hops: 16,
            aging: AgingMode::default(),
            policy: CachePolicy::default(),
        }
    }
}

impl AdcConfig {
    /// Starts building a configuration from the paper's defaults.
    pub fn builder() -> AdcConfigBuilder {
        AdcConfigBuilder {
            config: AdcConfig::default(),
        }
    }

    /// Validates capacity parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending parameter when any
    /// capacity or the hop limit is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.single_capacity == 0 {
            return Err(ConfigError::ZeroSingleCapacity);
        }
        if self.multiple_capacity == 0 {
            return Err(ConfigError::ZeroMultipleCapacity);
        }
        if self.cache_capacity == 0 {
            return Err(ConfigError::ZeroCacheCapacity);
        }
        if self.max_hops == 0 {
            return Err(ConfigError::ZeroMaxHops);
        }
        Ok(())
    }
}

/// Builder for [`AdcConfig`]; see [`AdcConfig::builder`].
#[derive(Debug, Clone)]
pub struct AdcConfigBuilder {
    config: AdcConfig,
}

impl AdcConfigBuilder {
    /// Sets the single-table capacity.
    pub fn single_capacity(mut self, n: usize) -> Self {
        self.config.single_capacity = n;
        self
    }

    /// Sets the multiple-table capacity.
    pub fn multiple_capacity(mut self, n: usize) -> Self {
        self.config.multiple_capacity = n;
        self
    }

    /// Sets the caching-table capacity.
    pub fn cache_capacity(mut self, n: usize) -> Self {
        self.config.cache_capacity = n;
        self
    }

    /// Sets the forwarding hop limit.
    pub fn max_hops(mut self, n: u32) -> Self {
        self.config.max_hops = n;
        self
    }

    /// Sets the aging mode.
    pub fn aging(mut self, mode: AgingMode) -> Self {
        self.config.aging = mode;
        self
    }

    /// Sets the caching policy.
    pub fn policy(mut self, policy: CachePolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if any capacity or the hop limit is zero; use
    /// [`AdcConfigBuilder::try_build`] for a fallible variant.
    #[expect(
        clippy::expect_used,
        reason = "documented panic; try_build is the fallible variant"
    )]
    pub fn build(self) -> AdcConfig {
        self.try_build().expect("invalid ADC configuration")
    }

    /// Fallible variant of [`AdcConfigBuilder::build`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending parameter.
    pub fn try_build(self) -> Result<AdcConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = AdcConfig::default();
        assert_eq!(c.single_capacity, 20_000);
        assert_eq!(c.multiple_capacity, 20_000);
        assert_eq!(c.cache_capacity, 10_000);
        assert_eq!(c.aging, AgingMode::AgedWorst);
        assert_eq!(c.policy, CachePolicy::Selective);
    }

    #[test]
    fn builder_overrides() {
        let c = AdcConfig::builder()
            .single_capacity(1)
            .multiple_capacity(2)
            .cache_capacity(3)
            .max_hops(4)
            .aging(AgingMode::Off)
            .policy(CachePolicy::LruAll)
            .build();
        assert_eq!(
            c,
            AdcConfig {
                single_capacity: 1,
                multiple_capacity: 2,
                cache_capacity: 3,
                max_hops: 4,
                aging: AgingMode::Off,
                policy: CachePolicy::LruAll,
            }
        );
    }

    #[test]
    fn zero_capacities_rejected() {
        assert!(AdcConfig::builder().single_capacity(0).try_build().is_err());
        assert!(AdcConfig::builder()
            .multiple_capacity(0)
            .try_build()
            .is_err());
        assert!(AdcConfig::builder().cache_capacity(0).try_build().is_err());
        assert!(AdcConfig::builder().max_hops(0).try_build().is_err());
    }

    #[test]
    #[should_panic(expected = "invalid ADC configuration")]
    fn build_panics_on_invalid() {
        let _ = AdcConfig::builder().single_capacity(0).build();
    }
}
