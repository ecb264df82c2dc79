(* An odd 62-bit constant (the golden ratio's bits): multiplying by it
   carries every key bit into every higher product bit. *)
let golden = 0x1E3779B97F4A7C15

(* Fold the high half of the key onto the low half, multiply, and rotate
   the product's high half down: each of the low 31 bits of the result
   is a product bit at 31 or above, so it depends on every bit of the
   key, and consecutive or strided keys land far apart, as in Fibonacci
   hashing. *)
let[@inline] hash_int k =
  let h = (k lxor (k lsr 32)) * golden in
  ((h lsr 31) lor (h lsl 32)) land max_int

(* Eight bytes per step, bounds-checked, unboxed by the compiler. *)
external get64 : string -> int -> int64 = "%caml_string_get64"

let[@inline] mix h w =
  let h = (h lxor w) * golden in
  h lxor (h lsr 31)

let rec words s i n h =
  if i + 8 <= n then words s (i + 8) n (mix h (Int64.to_int (get64 s i))) else h

let rec bytes s i n acc =
  if i >= n then acc else bytes s (i + 1) n ((acc lsl 8) lor Char.code s.[i])

let hash_string s =
  let n = String.length s in
  let h = words s 0 n n in
  let h =
    if n land 7 = 0 then h
    else if n >= 8 then mix h (Int64.to_int (get64 s (n - 8)))  (* the tail, overlapping *)
    else mix h (bytes s 0 n 0)
  in
  hash_int h

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

module Int = struct
  type key = int

  (* A free slot holds [free] in [keys].  The key [min_int] itself
     cannot live in a slot, so its binding is the flag [has_free_key]
     and the extra last value slot.  That last slot always holds some
     value: the filler written over a value slot when its key leaves,
     so the table keeps no removed value alive but that one. *)
  let free = min_int

  type 'a t = {
    mutable keys : int array;  (* power-of-two length *)
    mutable vals : 'a array;  (* [||] before the first value, then one longer than [keys] *)
    mutable size : int;  (* bindings held in [keys] *)
    mutable has_free_key : bool;
    initial : int;  (* the length [reset] returns to *)
  }

  let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (2 * c)

  let create n =
    let initial = pow2_at_least (2 * n) 8 in
    { keys = Array.make initial free; vals = [||]; size = 0; has_free_key = false; initial }

  let length t = t.size + if t.has_free_key then 1 else 0

  (* The slot holding [k], or the free slot where the probe from [k]'s
     home stops.  Indices are masked, so the unchecked reads stay in
     bounds; the load bound keeps a free slot in every probe's path. *)
  let rec probe keys mask k i =
    let x = Array.unsafe_get keys i in
    if x = k || x = free then i else probe keys mask k ((i + 1) land mask)

  let[@inline] slot t k =
    let mask = Array.length t.keys - 1 in
    probe t.keys mask k (hash_int k land mask)

  let mem t k =
    if k = free then t.has_free_key else Array.unsafe_get t.keys (slot t k) = k

  let find_opt t k =
    if k = free then if t.has_free_key then Some t.vals.(Array.length t.keys) else None
    else
      let i = slot t k in
      if Array.unsafe_get t.keys i = k then Some t.vals.(i) else None

  let rec reinsert keys vals mask okeys ovals i =
    if i < Array.length okeys then begin
      let k = okeys.(i) in
      if k <> free then begin
        let j = probe keys mask k (hash_int k land mask) in
        keys.(j) <- k;
        vals.(j) <- ovals.(i)
      end;
      reinsert keys vals mask okeys ovals (i + 1)
    end

  let resize t cap =
    let okeys = t.keys and ovals = t.vals in
    let keys = Array.make cap free in
    let vals = Array.make (cap + 1) ovals.(Array.length okeys) in
    reinsert keys vals (cap - 1) okeys ovals 0;
    t.keys <- keys;
    t.vals <- vals

  let rec replace t k v =
    if Array.length t.vals = 0 then t.vals <- Array.make (Array.length t.keys + 1) v;
    if k = free then begin
      t.vals.(Array.length t.keys) <- v;
      t.has_free_key <- true
    end
    else
      let i = slot t k in
      if Array.unsafe_get t.keys i = k then t.vals.(i) <- v
      else if 2 * (t.size + 1) > Array.length t.keys then begin
        resize t (2 * Array.length t.keys);
        replace t k v
      end
      else begin
        t.keys.(i) <- k;
        t.vals.(i) <- v;
        t.size <- t.size + 1
      end

  (* Backward-shift removal: [hole] is free; walk the cluster after it
     and move back each key whose probe path crosses the hole, until a
     free slot ends the cluster. *)
  let rec shift keys vals mask hole j =
    let j = (j + 1) land mask in
    let x = Array.unsafe_get keys j in
    if x = free then begin
      keys.(hole) <- free;
      vals.(hole) <- vals.(mask + 1)
    end
    else if (j - hash_int x) land mask >= (j - hole) land mask then begin
      keys.(hole) <- x;
      vals.(hole) <- vals.(j);
      shift keys vals mask j j
    end
    else shift keys vals mask hole j

  let remove t k =
    if k = free then t.has_free_key <- false
    else
      let i = slot t k in
      if Array.unsafe_get t.keys i = k then begin
        t.size <- t.size - 1;
        shift t.keys t.vals (Array.length t.keys - 1) i i
      end

  let reset t =
    if Array.length t.keys > t.initial then begin
      t.keys <- Array.make t.initial free;
      t.vals <- [||]
    end
    else if t.size > 0 || t.has_free_key then begin
      Array.fill t.keys 0 (Array.length t.keys) free;
      let n = Array.length t.keys in
      Array.fill t.vals 0 n t.vals.(n)
    end;
    t.size <- 0;
    t.has_free_key <- false

  (* A walk stops at the last binding: [left] counts the bindings in
     [keys] it has not visited yet, so an empty table costs no slot
     visit.  The slot bound stays, for a walk whose [f] removes.  Loops
     over local refs, so a walk allocates no closure. *)
  let iter f t =
    let keys = t.keys and vals = t.vals in
    let n = Array.length keys in
    let i = ref 0 and left = ref t.size in
    while !left > 0 && !i < n do
      let k = Array.unsafe_get keys !i in
      if k <> free then begin
        decr left;
        f k vals.(!i)
      end;
      incr i
    done;
    if t.has_free_key then f free vals.(n)

  let fold f t init =
    let keys = t.keys and vals = t.vals in
    let n = Array.length keys in
    let i = ref 0 and left = ref t.size and acc = ref init in
    while !left > 0 && !i < n do
      let k = Array.unsafe_get keys !i in
      if k <> free then begin
        decr left;
        acc := f k vals.(!i) !acc
      end;
      incr i
    done;
    if t.has_free_key then f free vals.(n) !acc else !acc
end

module Str = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = hash_string
end)
