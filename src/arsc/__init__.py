"""Counter-based stochastic computing simulator with a run-time
accuracy-reconfigurable DCT/IDCT image pipeline and calibrated
timing/power/aging platform models."""
