(** The testing phase (paper §4.3).

    "The system must ensure the base and shadow filesystems produce
    equivalent output for a sequence of operations.  Verification alone is
    insufficient for this property, therefore, testing is necessary before
    using the shadow.  The testing phase uses the base as a reference
    filesystem to test the shadow by running a large volume of workloads
    and monitoring for discrepancies."

    This module is that phase as a library: it drives the same operation
    stream into a base and a shadow mounted on identical fresh images and
    reports every disagreement, plus an end-of-run comparison of the
    essential state (tree contents and descriptor tables). *)

type mismatch = {
  m_index : int;
  m_op : Rae_vfs.Op.t;
  m_base : Rae_vfs.Op.outcome;
  m_shadow : Rae_vfs.Op.outcome;
}

type result = {
  ops_run : int;
  mismatches : mismatch list;
  base_crashed : string option;  (** the base hit a runtime error mid-test *)
  shadow_violation : string option;  (** the shadow's checks fired mid-test *)
  final_state_equal : bool;
}

val agreement : result -> bool
(** No mismatches, no crashes, final states equal. *)

val pp_mismatch : Format.formatter -> mismatch -> unit
val pp_result : Format.formatter -> result -> unit

val run :
  ?nblocks:int ->
  ?ninodes:int ->
  ?base_config:Rae_basefs.Base.config ->
  ?bugs:Rae_basefs.Bug_registry.t ->
  Rae_vfs.Op.t list ->
  result
(** [run ops] builds two identical fresh images, mounts the base on one
    and attaches the shadow to the other, executes [ops] on both, and
    compares.  Sync operations are compared too (both sides accept them).
    With [bugs] armed this doubles as a bug-hunting harness: the report
    localises the first op whose outcome diverged. *)

val run_seeded :
  ?count:int -> ?profile:Rae_workload.Workload.profile -> seed:int64 -> unit -> result
(** Convenience: generate a workload and {!run} it. *)

val states_equal : Rae_basefs.Base.t -> Rae_shadowfs.Shadow.t -> bool
(** The end-of-run comparison on its own: walk both trees through their
    public APIs and compare structure, metadata, file contents and the
    descriptor tables. *)

val shadow_states_equal : Rae_shadowfs.Shadow.t -> Rae_shadowfs.Shadow.t -> bool
(** The same walk over two shadow instances — the comparator behind the
    checkpoint-equivalence property (replay-from-checkpoint must be
    indistinguishable from replay-from-S0 through the public API). *)

val crash_states_equal :
  dirty:(Rae_vfs.Types.ino -> bool) -> Rae_specfs.Spec.t -> Rae_shadowfs.Shadow.t -> bool
(** The comparator behind the {!Rae_crash} oracle: walk a recovered crash
    image (attached read-only under the shadow) against one legal durable
    state (a spec snapshot captured at a journal-commit boundary).
    Descriptor tables and clocks are volatile across a power cut and are
    not compared.  Metadata is compared strictly — it is journal-protected
    and must survive exactly.  File contents reach the medium outside the
    transaction (ordered data), so inodes flagged [dirty] — content
    touched, unlinked or overwritten after the crash point's durable
    bound — have their content (for directories: their subtree) excluded,
    mirroring the guarantee set B3-style checkers test against. *)

val availability : seed:int64 -> count:int -> (unit, string) Stdlib.result
(** The availability oracle (the paper's promise that applications see no
    error): a controller over a base with four bugs armed (two panics, a
    WARN and a free-count corruption) runs a random trace of [count] ops
    drawn from [seed]; every outcome must equal the spec's, and after a final
    {!Controller.sync} fsck must find the image clean.  fsck is the one
    check here that does not come from the spec, so it catches a bug the
    spec shares.  [Error] names the first failure. *)
