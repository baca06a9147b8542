"""Weight families: Pearson data, moment oracles, quadrature.

A family is a weight density known only through structured data: a
symmetric polynomial matrix phi of degree at most two, a linear drift
pair (psi1, psi2) solving the matrix Pearson equation, the logarithmic
gradient of the density as a pair of rational functions, and an exact
moment oracle where one exists.
"""
import json

import numpy as np

from copoly2d.weights import (
    builtin,
    check_pearson,
    check_phi_conditions,
    export_family,
    list_builtins,
    load_family,
    make_quadrature,
)


def main():
    print("built-in families:")
    for name, nparams, kind in list_builtins():
        print(f"  {name:20s} parameters: {nparams}  domain: {kind}")

    f = builtin("product_laguerre(1,2)")
    print("\nproduct_laguerre(1,2)")
    print("  phi  =", [[f.phi[i, j].to_text() for j in (0, 1)] for i in (0, 1)])
    print("  psi1 =", f.psi1.to_text(), "  psi2 =", f.psi2.to_text())
    print("  pearson identity holds:", check_pearson(f))
    print("  weight-matrix compatibility holds:", check_phi_conditions(f))
    print("  normalized moment (2,1):", f.moment(2, 1))

    # families serialize to JSON and reload with their moment table
    doc = export_family(f, moment_degree=8)
    text = json.dumps(doc, sort_keys=True)
    g = load_family(text)
    print("  export/reload keeps the moments:", g.moment(2, 1) == f.moment(2, 1))

    # numeric integration backs the checkers when no oracle is wanted
    rule = make_quadrature(f, 12)
    approx = float(np.sum(rule.weights * rule.nodes_x ** 2 * rule.nodes_y))
    print("  quadrature vs oracle at (2,1): %.3e" % abs(approx - float(f.moment(2, 1))))


if __name__ == "__main__":
    main()
