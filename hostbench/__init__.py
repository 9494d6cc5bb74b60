"""Host-cost benchmark of the simulated SP; see README.md."""
