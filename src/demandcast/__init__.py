"""Day-ahead EV charging demand forecasting with an attention LSTM,
plus exact grouped Shapley attributions for each forecast."""

__version__ = "0.1.0"
