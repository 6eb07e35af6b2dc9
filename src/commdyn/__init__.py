"""Community detection from equilibria of saturating opinion dynamics on
two-community stochastic block models. Import names from their modules, as in
`from commdyn.harness import build_config`."""
