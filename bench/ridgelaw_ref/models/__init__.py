"""Shipped model files (JSON), resolved by id through importlib.resources."""
