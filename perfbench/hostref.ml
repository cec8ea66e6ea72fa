(** Host-speed reference: a fixed kernel timed next to the measured work.

    On a shared host the speed of the process changes in phases of
    seconds to minutes, by up to 2x, mostly through the memory system
    (caches and memory bandwidth shared with other tenants).  The kernel
    is a small tree-walking interpreter over boxed values, the same kind
    of work as Light's interpreter, recorder and replayer, but fixed: it
    shares no code with the library, so a change to the library does not
    change it.  Timing it right next to each measured piece of work tells
    how fast the host was at that moment.

    Its heap has two parts, because the benchmark's items slow down more
    than one part alone and less than the other: a hash table of boxed
    pairs (3 MB in the OCaml heap, pointer chasing and write barriers),
    which slows down less than the items, and a 4-MiB array outside the
    OCaml heap (cache misses and little else), which slows down more.  The
    loop spends about as long in each.

    A sample runs the kernel once to bring its heap back into the shared
    cache, then reads a buffer twice the size of a core's private cache,
    then times a second run.  The timed run so starts from the same cache
    state whatever ran before it, and the program under test does not
    change the kernel's time by evicting its data. *)

type value = Int of int | Pair of value * value

type expr =
  | Const of int
  | Var of int
  | Add of expr * expr
  | Mul of expr * expr
  | Mod of expr * expr
  | Fst of expr
  | Snd of expr
  | MkPair of expr * expr
  | Load of expr  (** from the hash table *)
  | ALoad of expr  (** from the array *)

type stmt =
  | Set of int * expr
  | Store of expr * expr
  | AStore of expr * expr
  | Seq of stmt list
  | Loop of int * expr * stmt  (** for var = 0 to bound - 1 *)

let table_size = 1 lsl 15

let table : (int, value) Hashtbl.t =
  let h = Hashtbl.create table_size in
  for i = 0 to table_size - 1 do
    Hashtbl.replace h i (Pair (Int i, Int (i * 3)))
  done;
  h

let array = Bigarray.Array1.init Bigarray.int Bigarray.c_layout (1 lsl 19) (fun i -> i * 3)
let array_mask = Bigarray.Array1.dim array - 1
let int_of = function Int n -> n | Pair _ -> 0

let rec eval env = function
  | Const n -> Int n
  | Var x -> env.(x)
  | Add (a, b) -> Int (int_of (eval env a) + int_of (eval env b))
  | Mul (a, b) -> Int (int_of (eval env a) * int_of (eval env b))
  | Mod (a, b) -> Int (int_of (eval env a) mod int_of (eval env b))
  | Fst e -> ( match eval env e with Pair (a, _) -> a | v -> v)
  | Snd e -> ( match eval env e with Pair (_, b) -> b | v -> v)
  | MkPair (a, b) -> Pair (eval env a, eval env b)
  | Load a -> (
    match Hashtbl.find_opt table (int_of (eval env a) mod table_size) with Some v -> v | None -> Int 0)
  | ALoad a -> Int (Bigarray.Array1.unsafe_get array (int_of (eval env a) land array_mask))

let rec exec env = function
  | Set (x, e) -> env.(x) <- eval env e
  | Store (a, e) ->
    let k = int_of (eval env a) mod table_size in
    Hashtbl.replace table k (eval env e)
  | AStore (a, e) ->
    let k = int_of (eval env a) land array_mask in
    Bigarray.Array1.unsafe_set array k (int_of (eval env e))
  | Seq ss -> List.iter (exec env) ss
  | Loop (x, bound, body) ->
    let n = int_of (eval env bound) in
    for i = 0 to n - 1 do
      env.(x) <- Int i;
      exec env body
    done

(* i = var 0, x = var 1, acc = var 2, j = var 3, p = var 4; each outer
   iteration does one hash-table step and two array steps *)
let program =
  let i = Var 0 and x = Var 1 and acc = Var 2 and j = Var 3 and p = Var 4 in
  Loop
    ( 0,
      Const 400,
      Seq
        [
          Set (1, Load (Mul (i, Const 7919)));
          Set (2, Add (acc, Add (Fst x, Snd x)));
          Store (Add (Mul (i, Const 31), Fst x), MkPair (Snd x, Mod (Add (acc, i), Const 1_000_003)));
          Loop
            ( 3,
              Const 2,
              Seq
                [
                  Set (4, MkPair (ALoad (Add (Mul (i, Const 7919), Mul (j, Const 104_729))), Add (acc, j)));
                  Set (2, Mod (Add (acc, Add (Fst p, Snd p)), Const 1_000_003));
                  AStore (Add (Add (Mul (i, Const 31), Fst p), j), Add (Snd p, Const 1));
                ] );
        ] )

(** Run the kernel once; returns its checksum. *)
let run () =
  let env = [| Int 0; Int 0; Int 0; Int 0; Int 0 |] in
  exec env program;
  int_of env.(2)

(* 4 MiB, twice the 2 MiB L2 of the reference host; bytes, so the GC does
   not scan it *)
let flush = Bytes.make (4 lsl 20) '\001'

let evict () =
  let s = ref 0 in
  let i = ref 0 in
  while !i < Bytes.length flush do
    s := !s + Char.code (Bytes.unsafe_get flush !i);
    i := !i + 64
  done;
  ignore (Sys.opaque_identity !s)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(** The kernel's time on the reference host, a 2.0 GHz Xeon (Sapphire
    Rapids) vCPU in a quick phase.  Scaled times read as if they had been
    measured there. *)
let reference_s = 0.5e-3

(** The kernel times of one run, in the order they were taken. *)
type t = { mutable samples : float array; mutable n : int }

let create () = { samples = Array.make 1024 0.0; n = 0 }

(** Time one run of the kernel now and keep it; returns its index. *)
let sample t =
  ignore (Sys.opaque_identity (run ()));
  evict ();
  let t0 = now_s () in
  ignore (Sys.opaque_identity (run ()));
  let dt = now_s () -. t0 in
  if t.n = Array.length t.samples then begin
    let a = Array.make (2 * t.n) 0.0 in
    Array.blit t.samples 0 a 0 t.n;
    t.samples <- a
  end;
  t.samples.(t.n) <- dt;
  t.n <- t.n + 1;
  t.n - 1

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

(** The factor that turns a time measured next to sample [i] into the time
    on the reference host: [reference_s] over the median of the seven
    samples around [i], taken within about a tenth of a second to a second
    of it.  Call it once every sample is taken. *)
let scale t i =
  let w = min t.n 7 in
  let lo = max 0 (min (t.n - w) (i - (w / 2))) in
  reference_s /. median (Array.sub t.samples lo w)

(** Median kernel time of the run, in seconds. *)
let kernel_s t = median (Array.sub t.samples 0 t.n)
