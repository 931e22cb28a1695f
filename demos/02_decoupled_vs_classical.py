"""Decoupled iteration against the classical oracle, side by side.

The decoupled form never touches an n x n iterate: it extends block
bases by one propagator product per new block and keeps only the
distinct blocks (moments) of its block Hankel kernel, from which the
kernel is assembled when an iterate is asked for.  Evaluated densely, its iterates must equal the
classical coupled recursions exactly (up to roundoff) -- that identity
is the whole point, and this script shows it on a random instance of
each family.
"""

import numpy as np

from dsda import (
    bsep_eval_F,
    bsep_init,
    bsep_sda_step,
    care_init,
    dare_init,
    dsda_assemble,
    dsda_eval_A,
    dsda_eval_G,
    dsda_eval_H,
    dsda_mare_dense,
    dsda_mare_eval,
    dsda_mare_eval_G,
    dsda_mare_init,
    dsda_mare_step,
    dsda_sym_init,
    dsda_sym_step,
    gen_random_bsep,
    gen_random_care,
    gen_random_dare,
    gen_random_mare,
    mare_init,
    mare_sda_step,
    sym_sda_step,
)


def rel(got, want):
    d = np.linalg.norm(want)
    return np.linalg.norm(got - want) / d if d > 0 else np.linalg.norm(got)


print("family  k   |H-H*|/|H*|   |G-G*|/|G*|   |A-A*|/|A*|   basis cols")

p = gen_random_dare(12, 2, 2, seed=7)
oracle, state = dare_init(p), dsda_sym_init(p)
for _ in range(4):
    oracle, state = sym_sda_step(oracle), dsda_sym_step(state)
    print(f"dare    {state.k}   {rel(dsda_eval_H(state).dense(), oracle.h_k):.2e}"
          f"      {rel(dsda_eval_G(state).dense(), oracle.g_k):.2e}"
          f"      {rel(dsda_eval_A(state), oracle.a_k):.2e}"
          f"      {state.basis_cols}")

p = gen_random_care(12, 2, 2, seed=7)
oracle, state = care_init(p), dsda_sym_init(p)
for _ in range(4):
    oracle, state = sym_sda_step(oracle), dsda_sym_step(state)
    print(f"care    {state.k}   {rel(dsda_eval_H(state).dense(), oracle.h_k):.2e}"
          f"      {rel(dsda_eval_G(state).dense(), oracle.g_k):.2e}"
          f"      {rel(dsda_eval_A(state), oracle.a_k):.2e}"
          f"      {state.basis_cols}")

p = gen_random_mare(8, 6, 2, 2, seed=7)
oracle, state = mare_init(p), dsda_mare_init(p)
for _ in range(4):
    oracle, state = mare_sda_step(oracle), dsda_mare_step(state)
    print(f"mare    {state.k}   {rel(dsda_mare_eval(state).dense(), oracle.h_k):.2e}"
          f"      {rel(dsda_mare_eval_G(state).dense(), oracle.g_k):.2e}"
          f"      {rel(dsda_mare_dense(state, 'E'), oracle.e_k):.2e}"
          f"      {state.basis_cols}")

p = gen_random_bsep(10, 2, seed=7)
oracle, state = bsep_init(p), dsda_sym_init(p)
for _ in range(4):
    oracle, state = bsep_sda_step(oracle), dsda_sym_step(state)
    print(f"bsep    {state.k}   {rel(bsep_eval_F(state).dense(), oracle.f_k):.2e}"
          f"   (F)         {rel(dsda_eval_A(state), oracle.e_k):.2e} (E)"
          f"      {state.basis_cols}")

print("\nThe state keeps moments, not kernels: a step only appends new")
print("moments, so the assembled kernel's off-diagonal quadrants are the")
print("previous kernel, shared bit for bit:")
prev = dsda_assemble(state, "Y")
state = dsda_sym_step(state)
y = dsda_assemble(state, "Y")
half_r, half_c = prev.shape
moments = state.moments["Y"]
print(f"  {moments.shape[0]} moments of shape "
      f"{moments.shape[1:]} stand for a {y.shape[0]}x{y.shape[1]} kernel")
print("  top-right  quadrant identical:",
      np.array_equal(y[:half_r, half_c:], prev))
print("  bottom-left quadrant identical:",
      np.array_equal(y[half_r:, :half_c], prev))
