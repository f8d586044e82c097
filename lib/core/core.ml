(** Facade for the reproduction of Alistarh, Censor-Hillel and Shavit,
    "Are Lock-Free Concurrent Algorithms Practically Wait-Free?"
    (PODC'14 brief announcement / STOC'14, arXiv:1311.3200).

    Paper-to-module map:

    - Definition 1 (stochastic scheduler): {!Sched.Scheduler},
      {!Sched.Validity}, crash conditions in {!Sched.Fault_plan}.
    - §2.1 step semantics: {!Sim.Program}, {!Sim.Executor},
      {!Sim.Memory}.
    - §2.4 latency measures: {!Sim.Metrics}.
    - Theorem 3 (bounded minimal ⇒ maximal progress w.p. 1):
      experiment over {!Sched.Scheduler.with_weak_fairness}.
    - Lemma 2 / Algorithm 1 (unbounded ⇒ not wait-free):
      {!Scu.Unbounded}.
    - §5 Algorithm 2 (the class SCU(q, s)): {!Scu.Scu_pattern};
      instances {!Scu.Counter}, {!Scu.Treiber}, {!Scu.Msqueue},
      {!Scu.Rcu}, {!Scu.Universal}.
    - §6.1 Markov chains and lifting: {!Chains.Scu_chain},
      {!Markov.Lifting}; Figure 1 is the n = 2 case.
    - §6.1.3 balls-into-bins game: {!Ballsbins.Game}.
    - §6.2 parallel code (Algorithm 4): {!Scu.Parallel_code},
      {!Chains.Parallel_chain}.
    - §7 augmented-CAS counter (Algorithm 5): {!Scu.Counter_aug},
      {!Chains.Counter_chain}, {!Chains.Ramanujan}.
    - Appendix A (Figures 3–4): {!Sched.Trace}, {!Runtime.Recorder}.
    - Appendix B (Figure 5): {!Runtime.Harness}, {!Chains.Predict}.
    - Wait-free comparison baseline: {!Scu.Waitfree_counter}.
    - Blocking comparison point (§2.2 taxonomy): {!Scu.Ticket_lock}.
    - §8 extensions: {!Scu.Sharded_counter} (avoiding the Θ(√n)
      contention factor), {!Markov.Mixing} (how long "long executions"
      are), per-method statistics in {!Sim.Metrics}. *)

module Stats = Stats
module Markov = Markov
module Sched = Sched
module Sim = Sim
module Scu = Scu
module Chains = Chains
module Ballsbins = Ballsbins
module Runtime = Runtime
module Linearize = Linearize
