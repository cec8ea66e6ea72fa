(** Reference interpreter: the seed's string-keyed semantics, retained as an
    executable specification.

    This module is a hook-free copy of the interpreter as it existed before
    the compile/intern pass: locals are name-keyed hashtables, heap fields
    are name-keyed hashtables, and every transition is interpreted directly
    off the {!Lang.Ast} form.  It exists for two purposes:

    - the outcome-equivalence test suite runs every workload under both
      interpreters and pins that {!Runtime.Interp.run} is observationally
      identical (status, reads, outputs, counters, syscalls, final_heap);
    - the VM equivalence suite holds {!Runtime.Vm} to it the same way.

    It supports no hooks (no gate, observer, or wakeup chooser), so it can
    only drive native runs; record/replay always goes through the VM. *)

open Lang
open Runtime

type obj = { cls : string; fields : (string, Value.t) Hashtbl.t }

type citem =
  | S of Ast.stmt
  | CUnlock of Value.objid * int

type frame = {
  mutable cont : citem list;
  locals : (string, Value.t) Hashtbl.t;
  ret_to : string option;
}

type tstatus =
  | Runnable
  | BlockedLock of Value.objid
  | BlockedJoin of int
  | InWait of Value.objid
  | Notified of Value.objid
  | Reacquiring of Value.objid
  | Finished
  | Crashed

type thread = {
  tid : int;
  mutable frames : frame list;
  mutable status : tstatus;
  mutable held : (Value.objid * int) list;
  mutable wait_restore : int;
  mutable alloc : int;
  mutable d : int;
  mutable sys_idx : int;
  mutable spawn_idx : int;
  mutable started : bool;
  mutable reads_rev : (int * Value.t) list;
  mutable outputs_rev : string list;
}

exception Rt_crash of int * int * string

type state = {
  program : Ast.program;
  plan : Plan.t;
  heap : (Value.objid, obj) Hashtbl.t;
  threads : (int, thread) Hashtbl.t;
  mutable thread_order : int list;
  locks : (Value.objid, int * int) Hashtbl.t;
  waitsets : (Value.objid, int list) Hashtbl.t;
  mutable steps : int;
  mutable crashes : Interp.crash list;
  mutable syscalls_rev : (int * int * string * Value.t) list;
  rng : Random.State.t;
}

let new_obj st (t : thread) (cls : string) : Value.objid =
  t.alloc <- t.alloc + 1;
  let id = (t.tid * 1_000_000) + t.alloc in
  Hashtbl.replace st.heap id { cls; fields = Hashtbl.create 8 };
  id

let heap_read st (o : Value.objid) (f : string) : Value.t =
  match Hashtbl.find_opt st.heap o with
  | None -> VNull
  | Some ob -> Option.value ~default:Value.VNull (Hashtbl.find_opt ob.fields f)

let heap_write st (o : Value.objid) (f : string) (v : Value.t) : unit =
  match Hashtbl.find_opt st.heap o with
  | None ->
    let ob = { cls = "$ghost"; fields = Hashtbl.create 4 } in
    Hashtbl.replace ob.fields f v;
    Hashtbl.replace st.heap o ob
  | Some ob -> Hashtbl.replace ob.fields f v

let elem_field (i : int) = "#" ^ string_of_int i
let mapkey_field (k : Value.t) = "@" ^ Value.map_key k

let crash site line fmt = Printf.ksprintf (fun m -> raise (Rt_crash (site, line, m))) fmt

let rec eval (s : Ast.stmt) (locals : (string, Value.t) Hashtbl.t) (e : Ast.expr) : Value.t =
  match e with
  | Int n -> VInt n
  | Bool b -> VBool b
  | Null -> VNull
  | Str str -> VStr str
  | Var x -> (
    match Hashtbl.find_opt locals x with
    | Some v -> v
    | None -> crash s.sid s.line "unbound local variable %s" x)
  | Unop (Not, a) -> (
    match eval s locals a with
    | VBool b -> VBool (not b)
    | v -> crash s.sid s.line "! applied to %s" (Value.to_string v))
  | Unop (Neg, a) -> (
    match eval s locals a with
    | VInt n -> VInt (-n)
    | v -> crash s.sid s.line "unary - applied to %s" (Value.to_string v))
  | Binop (op, a, b) -> eval_binop s locals op a b

and eval_binop s locals op a b : Value.t =
  let open Value in
  match op with
  | Ast.And -> (
    match eval s locals a with
    | VBool false -> VBool false
    | VBool true -> (
      match eval s locals b with
      | VBool v -> VBool v
      | v -> crash s.sid s.line "&& applied to %s" (to_string v))
    | v -> crash s.sid s.line "&& applied to %s" (to_string v))
  | Or -> (
    match eval s locals a with
    | VBool true -> VBool true
    | VBool false -> (
      match eval s locals b with
      | VBool v -> VBool v
      | v -> crash s.sid s.line "|| applied to %s" (to_string v))
    | v -> crash s.sid s.line "|| applied to %s" (to_string v))
  | Eq -> VBool (Value.equal (eval s locals a) (eval s locals b))
  | Ne -> VBool (not (Value.equal (eval s locals a) (eval s locals b)))
  | _ -> (
    let va = eval s locals a and vb = eval s locals b in
    match op, va, vb with
    | Add, VInt x, VInt y -> VInt (x + y)
    | Add, VStr x, VStr y -> VStr (x ^ y)
    | Sub, VInt x, VInt y -> VInt (x - y)
    | Mul, VInt x, VInt y -> VInt (x * y)
    | Div, VInt _, VInt 0 -> crash s.sid s.line "division by zero"
    | Div, VInt x, VInt y -> VInt (x / y)
    | Mod, VInt _, VInt 0 -> crash s.sid s.line "modulo by zero"
    | Mod, VInt x, VInt y -> VInt (x mod y)
    | Lt, VInt x, VInt y -> VBool (x < y)
    | Le, VInt x, VInt y -> VBool (x <= y)
    | Gt, VInt x, VInt y -> VBool (x > y)
    | Ge, VInt x, VInt y -> VBool (x >= y)
    | _ ->
      crash s.sid s.line "type error: %s %s %s" (to_string va)
        (Pp.binop_str op) (to_string vb))

let eval_bool (s : Ast.stmt) locals e : bool =
  match eval s locals e with
  | VBool b -> b
  | v -> crash s.sid s.line "expected boolean, got %s" (Value.to_string v)

let eval_ref (s : Ast.stmt) locals e : Value.objid =
  match eval s locals e with
  | VRef o -> o
  | VNull -> crash s.sid s.line "null dereference"
  | v -> crash s.sid s.line "expected object reference, got %s" (Value.to_string v)

(* Tick D(t); record non-ghost shared-read values (Theorem 1 observable). *)
let tick (t : thread) ~(is_read : bool) ~(ghost : bool) (value : Value.t) : unit =
  t.d <- t.d + 1;
  if is_read && not ghost then t.reads_rev <- (t.d, value) :: t.reads_rev

let lock_free_or_mine st (t : thread) (m : Value.objid) : bool =
  match Hashtbl.find_opt st.locks m with
  | None -> true
  | Some (owner, _) -> owner = t.tid

let do_acquire st (t : thread) (m : Value.objid) : unit =
  (match Hashtbl.find_opt st.locks m with
  | None -> Hashtbl.replace st.locks m (t.tid, 1)
  | Some (owner, n) ->
    assert (owner = t.tid);
    Hashtbl.replace st.locks m (t.tid, n + 1));
  (match List.assoc_opt m t.held with
  | None -> t.held <- (m, 1) :: t.held
  | Some n -> t.held <- (m, n + 1) :: List.remove_assoc m t.held);
  tick t ~is_read:true ~ghost:true (heap_read st m "$lock");
  heap_write st m "$lock" (VInt t.tid);
  tick t ~is_read:false ~ghost:true (VInt t.tid)

let do_release st (t : thread) (m : Value.objid) ~(site : int) ~(full : bool) : unit =
  match Hashtbl.find_opt st.locks m with
  | Some (owner, n) when owner = t.tid ->
    let remaining = if full then 0 else n - 1 in
    if remaining = 0 then Hashtbl.remove st.locks m
    else Hashtbl.replace st.locks m (t.tid, remaining);
    (if full || remaining = 0 then t.held <- List.remove_assoc m t.held
     else t.held <- (m, remaining) :: List.remove_assoc m t.held);
    heap_write st m "$lock" (VInt (-t.tid - 1));
    tick t ~is_read:false ~ghost:true (VInt (-t.tid - 1))
  | _ -> raise (Rt_crash (site, 0, "unlock of a lock not held"))

let semantically_enabled st (t : thread) : bool =
  match t.status with
  | Finished | Crashed | InWait _ -> false
  | Notified _ -> true
  | Reacquiring m -> lock_free_or_mine st t m
  | BlockedLock m -> lock_free_or_mine st t m
  | BlockedJoin target -> (
    match Hashtbl.find_opt st.threads target with
    | Some tt -> tt.status = Finished || tt.status = Crashed
    | None -> true)
  | Runnable -> (
    if not t.started then true
    else
      match t.frames with
      | [] -> true
      | { cont = []; _ } :: _ -> true
      | { cont = CUnlock _ :: _; _ } :: _ -> true
      | ({ cont = S s :: _; locals; _ } :: _) -> (
        try
          match s.node with
          | Sync (m, _) | Lock m -> lock_free_or_mine st t (eval_ref s locals m)
          | Join h -> (
            match eval s locals h with
            | VThread target -> (
              match Hashtbl.find_opt st.threads target with
              | Some tt -> tt.status = Finished || tt.status = Crashed
              | None -> true)
            | _ -> true)
          | _ -> true
        with Rt_crash _ -> true))

let current_frame (t : thread) : frame = List.hd t.frames

let set_local (t : thread) (x : string) (v : Value.t) : unit =
  Hashtbl.replace (current_frame t).locals x v

let pop_stmt (t : thread) : unit =
  let f = current_frame t in
  f.cont <- List.tl f.cont

let do_read st (t : thread) (s : Ast.stmt) (o : Value.objid) (f : string) : Value.t =
  let v = heap_read st o f in
  if st.plan.shared_site s.sid then tick t ~is_read:true ~ghost:false v;
  v

let do_write st (t : thread) (s : Ast.stmt) (o : Value.objid) (f : string) (v : Value.t) :
    unit =
  heap_write st o f v;
  if st.plan.shared_site s.sid then tick t ~is_read:false ~ghost:false v

let opaque_op (s : Ast.stmt) (name : string) (args : Value.t list) : Value.t =
  let module V = Value in
  let int1 = function [ V.VInt n ] -> n | _ -> crash s.sid s.line "#%s: expected int" name in
  if String.length name >= 2 && String.sub name 0 2 = "__" then V.VNull
  else
  match name, args with
  | "hash", [ v ] ->
    let s = V.map_key v in
    let h = ref 17 in
    String.iter (fun ch -> h := (!h * 31) + Char.code ch) s;
    VInt (!h land 0x3FFFFFFF)
  | "strlen", [ V.VStr s ] -> VInt (String.length s)
  | "strcat", [ V.VStr a; V.VStr b ] -> VStr (a ^ b)
  | "str_index", [ V.VStr s; V.VStr sub ] ->
    let n = String.length s and m = String.length sub in
    let rec find i = if i + m > n then -1 else if String.sub s i m = sub then i else find (i + 1) in
    VInt (if m = 0 then 0 else find 0)
  | "to_str", [ v ] -> VStr (V.to_string v)
  | "crc", _ ->
    let n = int1 args in
    let x = n lxor (n lsl 13) in
    let x = x lxor (x asr 7) in
    VInt ((x lxor (x lsl 17)) land 0x3FFFFFFF)
  | "mix", [ V.VInt a; V.VInt b ] -> VInt (((a * a) + (b * b) + (a * b)) land 0x3FFFFFFF)
  | "floor_sqrt", _ ->
    let n = int1 args in
    if n < 0 then crash s.sid s.line "#floor_sqrt of negative"
    else VInt (int_of_float (sqrt (float_of_int n)))
  | _ -> crash s.sid s.line "unknown opaque operation #%s" name

let syscall_value st (t : thread) (s : Ast.stmt) (name : string) (args : Value.t list) :
    Value.t =
  match name, args with
  | "time", [] -> VInt (st.steps / 10)
  | "nanotime", [] -> VInt ((st.steps * 1000) + (t.tid * 7))
  | "rand", [ Value.VInt n ] when n > 0 -> VInt (Random.State.int st.rng n)
  | "rand", [] -> VInt (Random.State.int st.rng 1_000_000)
  | "read_input", [] -> VInt (Random.State.int st.rng 100)
  | _ -> crash s.sid s.line "bad syscall @%s" name

let fifo_pop st (m : Value.objid) : int option =
  match Hashtbl.find_opt st.waitsets m with
  | None | Some [] -> None
  | Some (w :: rest) ->
    Hashtbl.replace st.waitsets m rest;
    Some w

let wake st (w : int) (m : Value.objid) : unit =
  let wt = Hashtbl.find st.threads w in
  wt.status <- Notified m

let finish_thread st (t : thread) ~(crashed : bool) : unit =
  List.iter (fun (m, _) -> do_release st t m ~site:0 ~full:true) t.held;
  heap_write st (-(t.tid + 1)) "$thread" (VInt t.tid);
  tick t ~is_read:false ~ghost:true (VInt t.tid);
  t.status <- (if crashed then Crashed else Finished)

let make_thread ~tid ~frames : thread =
  {
    tid;
    frames;
    status = Runnable;
    held = [];
    wait_restore = 0;
    alloc = 0;
    d = 0;
    sys_idx = 0;
    spawn_idx = 0;
    started = false;
    reads_rev = [];
    outputs_rev = [];
  }

let spawn_thread st (parent : thread) (s : Ast.stmt) (fname : string) (args : Value.t list) :
    int =
  let fd =
    match Ast.find_fn st.program fname with
    | Some fd -> fd
    | None -> crash s.sid s.line "spawn of undefined function %s" fname
  in
  parent.spawn_idx <- parent.spawn_idx + 1;
  if parent.spawn_idx > 99 then crash s.sid s.line "spawn limit (99 per thread) exceeded";
  let tid = (parent.tid * 100) + parent.spawn_idx in
  let locals = Hashtbl.create 16 in
  List.iter2 (fun p v -> Hashtbl.replace locals p v) fd.params args;
  let th =
    make_thread ~tid
      ~frames:[ { cont = List.map (fun x -> S x) fd.body; locals; ret_to = None } ]
  in
  Hashtbl.replace st.threads tid th;
  st.thread_order <- st.thread_order @ [ tid ];
  heap_write st (-(tid + 1)) "$thread" (VThread tid);
  tick parent ~is_read:false ~ghost:true (VThread tid);
  tid

let rec step_thread st (t : thread) : unit =
  if not t.started then begin
    t.started <- true;
    tick t ~is_read:true ~ghost:true (heap_read st (-(t.tid + 1)) "$thread")
  end
  else
    match t.status with
    | Notified m ->
      tick t ~is_read:true ~ghost:true (heap_read st m "$cond");
      t.status <- Reacquiring m
    | Reacquiring m ->
      tick t ~is_read:true ~ghost:true (heap_read st m "$lock");
      Hashtbl.replace st.locks m (t.tid, t.wait_restore);
      t.held <- (m, t.wait_restore) :: t.held;
      t.wait_restore <- 0;
      heap_write st m "$lock" (VInt t.tid);
      tick t ~is_read:false ~ghost:true (VInt t.tid);
      t.status <- Runnable
    | BlockedLock _ | BlockedJoin _ | Runnable -> (
      t.status <- Runnable;
      match t.frames with
      | [] -> finish_thread st t ~crashed:false
      | { cont = []; ret_to; _ } :: rest ->
        t.frames <- rest;
        (match rest, ret_to with
        | caller :: _, Some x -> Hashtbl.replace caller.locals x VNull
        | _ -> ())
      | ({ cont = CUnlock (m, sid) :: _; _ } :: _) ->
        pop_stmt t;
        do_release st t m ~site:sid ~full:false
      | ({ cont = S s :: _; locals; _ } :: _) -> exec_stmt st t s locals)
    | InWait _ | Finished | Crashed -> assert false

and exec_stmt st (t : thread) (s : Ast.stmt) (locals : (string, Value.t) Hashtbl.t) : unit =
  let e x = eval s locals x in
  match s.node with
  | Nop | Yield -> pop_stmt t
  | Assign (x, v) ->
    let v = e v in
    pop_stmt t;
    set_local t x v
  | Load (x, o, f) ->
    let o = eval_ref s locals o in
    pop_stmt t;
    set_local t x (do_read st t s o f)
  | Store (o, f, v) ->
    let o = eval_ref s locals o in
    let v = e v in
    pop_stmt t;
    do_write st t s o f v
  | LoadIdx (x, a, i) -> (
    match e a, e i with
    | VRef o, VInt n ->
      let len = match heap_read st o "len" with VInt l -> l | _ -> 0 in
      if n < 0 || n >= len then crash s.sid s.line "array index %d out of bounds (len %d)" n len;
      pop_stmt t;
      set_local t x (do_read st t s o (elem_field n))
    | VNull, _ -> crash s.sid s.line "null dereference"
    | va, vi ->
      crash s.sid s.line "bad array access %s[%s]" (Value.to_string va) (Value.to_string vi))
  | StoreIdx (a, i, v) -> (
    match e a, e i with
    | VRef o, VInt n ->
      let len = match heap_read st o "len" with VInt l -> l | _ -> 0 in
      if n < 0 || n >= len then crash s.sid s.line "array index %d out of bounds (len %d)" n len;
      let v = e v in
      pop_stmt t;
      do_write st t s o (elem_field n) v
    | VNull, _ -> crash s.sid s.line "null dereference"
    | va, _ -> crash s.sid s.line "bad array store into %s" (Value.to_string va))
  | GlobalLoad (x, g) ->
    pop_stmt t;
    set_local t x (do_read st t s 0 g)
  | GlobalStore (g, v) ->
    let v = e v in
    pop_stmt t;
    do_write st t s 0 g v
  | New (x, cls) ->
    pop_stmt t;
    let id = new_obj st t cls in
    (match Ast.class_fields st.program cls with
    | Some fields -> List.iter (fun f -> heap_write st id f VNull) fields
    | None -> ());
    set_local t x (VRef id)
  | NewArray (x, n) -> (
    match e n with
    | VInt len when len >= 0 ->
      pop_stmt t;
      let id = new_obj st t "[]" in
      heap_write st id "len" (VInt len);
      for i = 0 to len - 1 do
        heap_write st id (elem_field i) (VInt 0)
      done;
      set_local t x (VRef id)
    | v -> crash s.sid s.line "bad array length %s" (Value.to_string v))
  | NewMap x ->
    pop_stmt t;
    let id = new_obj st t "map" in
    set_local t x (VRef id)
  | MapGet (x, m, k) ->
    let o = eval_ref s locals m in
    let f = mapkey_field (e k) in
    pop_stmt t;
    set_local t x (do_read st t s o f)
  | MapPut (m, k, v) ->
    let o = eval_ref s locals m in
    let f = mapkey_field (e k) in
    let v = e v in
    pop_stmt t;
    do_write st t s o f v
  | MapHas (x, m, k) ->
    let o = eval_ref s locals m in
    let f = mapkey_field (e k) in
    pop_stmt t;
    let v = do_read st t s o f in
    set_local t x (VBool (v <> VNull))
  | If (c, b1, b2) ->
    let cond = eval_bool s locals c in
    let f = current_frame t in
    f.cont <- List.map (fun x -> S x) (if cond then b1 else b2) @ List.tl f.cont
  | While (c, b) ->
    let cond = eval_bool s locals c in
    let f = current_frame t in
    if cond then f.cont <- List.map (fun x -> S x) b @ f.cont
    else f.cont <- List.tl f.cont
  | Call (ret, fname, args) -> (
    match Ast.find_fn st.program fname with
    | None -> crash s.sid s.line "call to undefined function %s" fname
    | Some fd ->
      let vals = List.map e args in
      pop_stmt t;
      let callee_locals = Hashtbl.create 16 in
      List.iter2 (fun p v -> Hashtbl.replace callee_locals p v) fd.params vals;
      t.frames <-
        { cont = List.map (fun x -> S x) fd.body; locals = callee_locals; ret_to = ret }
        :: t.frames)
  | Return v -> (
    let rv = match v with Some x -> e x | None -> VNull in
    match t.frames with
    | { ret_to; _ } :: rest ->
      t.frames <- rest;
      (match rest, ret_to with
      | caller :: _, Some x -> Hashtbl.replace caller.locals x rv
      | _ -> ())
    | [] -> assert false)
  | Spawn (h, fname, args) ->
    let vals = List.map e args in
    pop_stmt t;
    let tid = spawn_thread st t s fname vals in
    set_local t h (VThread tid)
  | Join hexpr -> (
    match e hexpr with
    | VThread target -> (
      match Hashtbl.find_opt st.threads target with
      | Some tt when tt.status = Finished || tt.status = Crashed ->
        pop_stmt t;
        tick t ~is_read:true ~ghost:true (heap_read st (-(target + 1)) "$thread")
      | Some _ -> t.status <- BlockedJoin target
      | None -> crash s.sid s.line "join of unknown thread %d" target)
    | v -> crash s.sid s.line "join of non-thread %s" (Value.to_string v))
  | Sync (m, body) ->
    let mo = eval_ref s locals m in
    if lock_free_or_mine st t mo then begin
      let f = current_frame t in
      f.cont <- List.map (fun x -> S x) body @ (CUnlock (mo, s.sid) :: List.tl f.cont);
      do_acquire st t mo
    end
    else t.status <- BlockedLock mo
  | Lock m ->
    let mo = eval_ref s locals m in
    if lock_free_or_mine st t mo then begin
      pop_stmt t;
      do_acquire st t mo
    end
    else t.status <- BlockedLock mo
  | Unlock m ->
    let mo = eval_ref s locals m in
    pop_stmt t;
    (match Hashtbl.find_opt st.locks mo with
    | Some (owner, _) when owner = t.tid -> do_release st t mo ~site:s.sid ~full:false
    | _ -> crash s.sid s.line "unlock of a lock not held")
  | Wait m -> (
    let mo = eval_ref s locals m in
    match Hashtbl.find_opt st.locks mo with
    | Some (owner, n) when owner = t.tid ->
      pop_stmt t;
      t.wait_restore <- n;
      do_release st t mo ~site:s.sid ~full:true;
      t.status <- InWait mo;
      let ws = Option.value ~default:[] (Hashtbl.find_opt st.waitsets mo) in
      Hashtbl.replace st.waitsets mo (ws @ [ t.tid ])
    | _ -> crash s.sid s.line "wait without holding the monitor")
  | Notify m -> (
    let mo = eval_ref s locals m in
    match Hashtbl.find_opt st.locks mo with
    | Some (owner, _) when owner = t.tid ->
      pop_stmt t;
      heap_write st mo "$cond" (VInt t.tid);
      tick t ~is_read:false ~ghost:true (VInt t.tid);
      (match fifo_pop st mo with Some w -> wake st w mo | None -> ())
    | _ -> crash s.sid s.line "notify without holding the monitor")
  | NotifyAll m -> (
    let mo = eval_ref s locals m in
    match Hashtbl.find_opt st.locks mo with
    | Some (owner, _) when owner = t.tid ->
      pop_stmt t;
      heap_write st mo "$cond" (VInt t.tid);
      tick t ~is_read:false ~ghost:true (VInt t.tid);
      let rec drain () =
        match fifo_pop st mo with
        | Some w -> wake st w mo; drain ()
        | None -> ()
      in
      drain ()
    | _ -> crash s.sid s.line "notifyAll without holding the monitor")
  | Assert c ->
    let v = eval_bool s locals c in
    if not v then crash s.sid s.line "assertion failed";
    pop_stmt t
  | Print v ->
    let str = Value.to_string (e v) in
    pop_stmt t;
    t.outputs_rev <- str :: t.outputs_rev
  | Syscall (x, name, args) ->
    let vals = List.map e args in
    let v = syscall_value st t s name vals in
    st.syscalls_rev <- (t.tid, t.sys_idx, name, v) :: st.syscalls_rev;
    t.sys_idx <- t.sys_idx + 1;
    pop_stmt t;
    set_local t x v
  | Opaque (x, name, args) ->
    let vals = List.map e args in
    let v = opaque_op s name vals in
    pop_stmt t;
    set_local t x v

let run ?(plan = Plan.all_shared) ?(max_steps = 5_000_000) ?(seed = 0) ~(sched : Sched.t)
    (program : Ast.program) : Interp.outcome =
  let st =
    {
      program;
      plan;
      heap = Hashtbl.create 1024;
      threads = Hashtbl.create 16;
      thread_order = [];
      locks = Hashtbl.create 16;
      waitsets = Hashtbl.create 16;
      steps = 0;
      crashes = [];
      syscalls_rev = [];
      rng = Random.State.make [| seed; 0x5EED |];
    }
  in
  Hashtbl.replace st.heap 0 { cls = "$globals"; fields = Hashtbl.create 16 };
  List.iter (fun g -> heap_write st 0 g VNull) program.globals;
  let main_thread =
    make_thread ~tid:1
      ~frames:
        [ { cont = List.map (fun x -> S x) program.main;
            locals = Hashtbl.create 16;
            ret_to = None } ]
  in
  main_thread.started <- true;
  Hashtbl.replace st.threads 1 main_thread;
  st.thread_order <- [ 1 ];
  let finished = ref false in
  let status = ref Interp.AllFinished in
  while not !finished do
    let all = st.thread_order in
    let live =
      List.filter
        (fun tid ->
          let t = Hashtbl.find st.threads tid in
          t.status <> Finished && t.status <> Crashed)
        all
    in
    if live = [] then (finished := true; status := Interp.AllFinished)
    else begin
      let runnable =
        List.filter (fun tid -> semantically_enabled st (Hashtbl.find st.threads tid)) live
      in
      if runnable = [] then begin
        finished := true;
        status := Interp.Deadlock live
      end
      else if st.steps >= max_steps then (finished := true; status := Interp.StepLimit)
      else begin
        let tid = sched.Sched.pick ~step:st.steps ~runnable in
        let tid = if List.mem tid runnable then tid else List.hd runnable in
        let t = Hashtbl.find st.threads tid in
        st.steps <- st.steps + 1;
        (try step_thread st t with
        | Rt_crash (site, line, msg) ->
          st.crashes <- { Interp.tid; site; line; msg; c = t.d } :: st.crashes;
          finish_thread st t ~crashed:true)
      end
    end
  done;
  let per_thread f =
    List.map (fun tid -> (tid, f (Hashtbl.find st.threads tid))) st.thread_order
  in
  {
    Interp.status = !status;
    steps = st.steps;
    crashes = List.rev st.crashes;
    reads = per_thread (fun t -> List.rev t.reads_rev);
    outputs = per_thread (fun t -> List.rev t.outputs_rev);
    counters = per_thread (fun t -> t.d);
    syscalls = List.rev st.syscalls_rev;
    final_heap =
      Hashtbl.fold (fun id (o : obj) acc -> (id, o) :: acc) st.heap []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map (fun (id, o) ->
             ( id,
               Hashtbl.fold (fun f v acc -> (f, v) :: acc) o.fields []
               |> List.sort compare ));
    trace = [];
  }
