type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing *)

let escape_into buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    (* Shortest representation that round-trips; an integral value
       printed without a fraction or exponent (|f| >= 1e15) gets ".0" so
       it reads back as a float, not an int. *)
    let s = Printf.sprintf "%.15g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          go x)
        xs;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\":";
          go x)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent over the string, [Failure]-free interface. *)

exception Bad of string

type state = { src : string; mutable pos : int }

let fail st msg = raise (Bad (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let next st =
  match peek st with
  | Some c ->
    st.pos <- st.pos + 1;
    c
  | None -> fail st "unexpected end of input"

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
      st.pos <- st.pos + 1;
      true
    | _ -> false
  do
    ()
  done

let expect st c =
  let got = next st in
  if got <> c then fail st (Printf.sprintf "expected %C, got %C" c got)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "invalid literal (expected %s)" word)

let hex4 st =
  let digit () =
    match next st with
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> fail st "invalid \\u escape"
  in
  let a = digit () in
  let b = digit () in
  let c = digit () in
  let d = digit () in
  (a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string_body st =
  let buf = Buffer.create 16 in
  let rec go () =
    match next st with
    | '"' -> Buffer.contents buf
    | '\\' ->
      (match next st with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | 't' -> Buffer.add_char buf '\t'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'u' ->
         let cp = hex4 st in
         let cp =
           (* Combine a surrogate pair when present; a lone surrogate maps
              to U+FFFD rather than failing the whole message. *)
           if cp >= 0xD800 && cp <= 0xDBFF then begin
             if peek st = Some '\\' then begin
               let save = st.pos in
               st.pos <- st.pos + 1;
               if peek st = Some 'u' then begin
                 st.pos <- st.pos + 1;
                 let lo = hex4 st in
                 if lo >= 0xDC00 && lo <= 0xDFFF then
                   0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                 else begin
                   st.pos <- save;
                   0xFFFD
                 end
               end
               else begin
                 st.pos <- save;
                 0xFFFD
               end
             end
             else 0xFFFD
           end
           else if cp >= 0xDC00 && cp <= 0xDFFF then 0xFFFD
           else cp
         in
         add_utf8 buf cp
       | c -> fail st (Printf.sprintf "invalid escape \\%C" c));
      go ()
    | c when Char.code c < 0x20 -> fail st "unescaped control character in string"
    | c ->
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  if peek st = Some '-' then st.pos <- st.pos + 1;
  let digits () =
    let had = ref false in
    while (match peek st with Some '0' .. '9' -> true | _ -> false) do
      had := true;
      st.pos <- st.pos + 1
    done;
    if not !had then fail st "invalid number"
  in
  digits ();
  let is_float = ref false in
  if peek st = Some '.' then begin
    is_float := true;
    st.pos <- st.pos + 1;
    digits ()
  end;
  (match peek st with
   | Some ('e' | 'E') ->
     is_float := true;
     st.pos <- st.pos + 1;
     (match peek st with
      | Some ('+' | '-') -> st.pos <- st.pos + 1
      | _ -> ());
     digits ()
   | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  match if !is_float then None else int_of_string_opt text with
  | Some i -> Int i
  | None ->
    let f = float_of_string text in
    (* Non-finite values have no JSON form: accepting 1e400 as infinity
       would print back as null. *)
    if Float.is_finite f then Float f else fail st "number out of range"

let rec parse_value depth st =
  if depth > 128 then fail st "nesting too deep";
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' ->
    st.pos <- st.pos + 1;
    String (parse_string_body st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      List []
    end
    else begin
      let rec elems acc =
        let v = parse_value (depth + 1) st in
        skip_ws st;
        match next st with
        | ',' -> elems (v :: acc)
        | ']' -> List (List.rev (v :: acc))
        | c -> fail st (Printf.sprintf "expected ',' or ']', got %C" c)
      in
      elems []
    end
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let field () =
        skip_ws st;
        expect st '"';
        let k = parse_string_body st in
        skip_ws st;
        expect st ':';
        let v = parse_value (depth + 1) st in
        (k, v)
      in
      let rec fields acc =
        let kv = field () in
        skip_ws st;
        match next st with
        | ',' -> fields (kv :: acc)
        | '}' -> Obj (List.rev (kv :: acc))
        | c -> fail st (Printf.sprintf "expected ',' or '}', got %C" c)
      in
      fields []
    end
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value 0 st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
    else Ok v
  | exception Bad msg -> Error msg
  | exception Failure msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member name = function Obj fields -> List.assoc_opt name fields | _ -> None
let get_string = function String s -> Some s | _ -> None
let get_bool = function Bool b -> Some b | _ -> None
let get_int = function Int i -> Some i | _ -> None
let get_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let get_list = function List xs -> Some xs | _ -> None
