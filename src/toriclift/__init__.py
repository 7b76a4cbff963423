"""Delzant polytope validation and the equivariant curve-lift criterion.

Exact decision machinery lives in `exactmath`, `polytope`, `chart`,
and `criterion`, which decides each endpoint in closed form from the
chart polynomials; the floating-point surface oracle in `surface`;
file formats in `io`; standard polytopes in `catalog`.  The package
namespace re-exports nothing, so importing one module loads only what
that module imports: take each name from its module.
"""

__version__ = "0.1.0"
