(** The repository's tiny JSON layer: a hand-rolled AST, printer and
    parser (the repo deliberately has no external JSON dependency).
    [light lint --json], [light analyze --json] and every [BENCH_*.json]
    the bench harness writes speak through it, so the perf gate re-reads
    exactly what the benches wrote.

    The printer and the parser are inverse: [of_string (to_string j) = j]
    for every [j] without a non-finite float (those print as [null], the
    only JSON spelling that parses). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape (s : string) : string =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* the shortest of %.15g/%.16g/%.17g that reads back as [f] (17 digits
   always do), kept float-shaped so the parser does not read it as an Int *)
let float_repr (f : float) : string =
  if not (Float.is_finite f) then "null"
  else
    let s =
      List.find
        (fun s -> float_of_string s = f)
        [ Printf.sprintf "%.15g" f; Printf.sprintf "%.16g" f; Printf.sprintf "%.17g" f ]
    in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

(* Containers of scalars print on one line (a bench row stays one line);
   nested containers print one element per line. *)
let to_string ?(indent = 2) (j : t) : string =
  let buf = Buffer.create 1024 in
  let pad n = String.make n ' ' in
  let scalar = function List _ | Obj _ -> false | _ -> true in
  let rec go depth j =
    match j with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List xs -> container depth '[' ']' (List.for_all scalar xs) (go (depth + 1)) xs
    | Obj kvs ->
      container depth '{' '}'
        (List.for_all (fun (_, v) -> scalar v) kvs)
        (fun (k, v) ->
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          go (depth + 1) v)
        kvs
  and container : 'a. int -> char -> char -> bool -> ('a -> unit) -> 'a list -> unit =
   fun depth op cl flat item xs ->
    Buffer.add_char buf op;
    if xs <> [] then begin
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          if flat then (if i > 0 then Buffer.add_char buf ' ')
          else begin
            Buffer.add_char buf '\n';
            Buffer.add_string buf (pad ((depth + 1) * indent))
          end;
          item x)
        xs;
      if not flat then begin
        Buffer.add_char buf '\n';
        Buffer.add_string buf (pad (depth * indent))
      end
    end;
    Buffer.add_char buf cl
  in
  go 0 j;
  Buffer.contents buf

exception Parse_error of string

(** Recursive-descent parser for the subset [to_string] emits (which is
    a subset of standard JSON, so externally edited baselines parse
    too).  Every malformed input raises [Parse_error]. *)
let of_string (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'u' ->
          if !pos + 4 >= n then fail "truncated \\u escape";
          let hex = String.sub s (!pos + 1) 4 in
          let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
          if not (String.for_all is_hex hex) then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ hex) in
          pos := !pos + 4;
          (* the printer only emits \u for control bytes; decode those *)
          if code < 0x100 then Buffer.add_char buf (Char.chr code)
          else fail "non-latin \\u escape"
        | _ -> fail "bad escape");
        advance ();
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while (match peek () with Some c when is_num c -> true | _ -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail ("bad number " ^ tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let kvs = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          kvs := field () :: !kvs;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !kvs)
      end
    | Some c -> (
      match c with
      | '0' .. '9' | '-' -> parse_number ()
      | _ -> fail (Printf.sprintf "unexpected '%c'" c))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let member (k : string) = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_int = function Int i -> Some i | _ -> None
let to_list = function List xs -> Some xs | _ -> None
let to_str = function Str s -> Some s | _ -> None
