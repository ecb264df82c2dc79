(** Monomorphic hash tables for the serving path.

    [Stdlib.Hashtbl]'s generic functions hash through [caml_hash] and
    compare keys with [compare_val], both of which walk the key's heap
    representation.  This module owns the two hashes every table on the
    serving path shares — one for ints, one for strings — and an
    int-keyed open-addressing table that inlines the int hash.  Tables
    over structured keys apply [Hashtbl.Make] to an [equal] built from
    [Int.equal] and [String.equal] and a [hash] built from the two
    below. *)

val hash_int : int -> int
(** A multiplicative hash whose low bits depend on every bit of the key,
    so block numbers strided by a power of two do not share low bits.
    Never negative. *)

val hash_string : string -> int
(** A hash of every byte of the string, read eight bytes per step.
    Never negative. *)

(** What {!Rae_cache.Lru} and {!Rae_cache.Two_q} need of their index:
    the part of [Hashtbl.S] they use.  [Hashtbl.Make]'s result and
    {!Int} both have it. *)
module type S = sig
  type key
  type 'a t

  val create : int -> 'a t
  val length : 'a t -> int
  val find_opt : 'a t -> key -> 'a option
  val mem : 'a t -> key -> bool
  val replace : 'a t -> key -> 'a -> unit
  val remove : 'a t -> key -> unit
  val reset : 'a t -> unit
  val iter : (key -> 'a -> unit) -> 'a t -> unit
  val fold : (key -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
end

(** An int-keyed table with open addressing: linear probing over a
    power-of-two array of keys, the values in a parallel array, and
    removal by backward shift, so no tombstones accumulate.  It keeps at
    most half its slots full, doubling when an insert would pass that;
    [create n] holds [n] bindings without growing.

    - [mem], a [find_opt] that misses, a [replace] of a present key and
      [remove] allocate nothing.
    - [reset] empties the table and gives back memory only when it grew
      past its initial size: a table that stays small keeps its arrays.
    - It holds no global state, so tables on different domains are
      independent.
    - One value stays referenced as the filler of free value slots: the
      first value ever stored, or a later value of key [min_int].
    - [iter] and [fold] visit bindings in slot order and stop at the
      last one, so a walk of an empty table visits no slot.  As with
      [Hashtbl], what they see is unspecified when the table is changed
      during the iteration. *)
module Int : S with type key = int

(** A string-keyed [Hashtbl.Make] over [String.equal] and {!hash_string}. *)
module Str : Hashtbl.S with type key = string
