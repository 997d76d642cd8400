type token =
  | INT of int
  | FLOAT of float
  | IDENT of string
  | KW of string
  | PUNCT of string
  | EOF

type t = { tok : token; line : int }

exception Error of int * string

let keywords =
  [ "int"; "float"; "void"; "struct"; "if"; "else"; "while"; "for"; "do";
    "switch"; "case"; "default"; "return"; "break"; "continue"; "sizeof";
    "null"; "print"; "halt" ]

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || is_digit c

(* Longest-match first.  Tokens share these strings and [keywords], so
   only identifiers and numbers copy text out of the source. *)
let puncts =
  [ "<<="; ">>="; "->"; "<<"; ">>"; "<="; ">="; "=="; "!="; "&&"; "||";
    "+="; "-="; "*="; "/="; "%="; "&="; "|="; "^="; "++"; "--";
    "+"; "-"; "*"; "/"; "%"; "&"; "|"; "^"; "~"; "!"; "<"; ">"; "=";
    "("; ")"; "{"; "}"; "["; "]"; ";"; ","; "."; "?"; ":" ]

(* [puncts] and [keywords] bucketed by first character, in order *)
let by_first words =
  let t = Array.make 256 [] in
  List.iter
    (fun w -> t.(Char.code w.[0]) <- t.(Char.code w.[0]) @ [ w ])
    words;
  t

let puncts_by_first = by_first puncts
let keywords_by_first = by_first keywords

let tokenize src =
  let n = String.length src in
  let line = ref 1 in
  let pos = ref 0 in
  let out = ref [] in
  let error msg = raise (Error (!line, msg)) in
  (* [s] occurs in [src] at [at], compared in place *)
  let occurs_at at s =
    let l = String.length s in
    at + l <= n
    &&
    let rec from i = i = l || (src.[at + i] = s.[i] && from (i + 1)) in
    from 0
  in
  let next_is k c = !pos + k < n && src.[!pos + k] = c in
  let emit tok = out := { tok; line = !line } :: !out in
  (* the literal from [start] to [pos]; with its digits checked, only
     a value beyond [max_int] still fails to convert *)
  let literal start = String.sub src start (!pos - start) in
  let int_literal start =
    let text = literal start in
    match int_of_string_opt text with
    | Some v -> emit (INT v)
    | None -> error ("integer literal out of range: " ^ text)
  in
  while !pos < n do
    let c = src.[!pos] in
    if c = '\n' then begin
      incr line;
      incr pos
    end
    else if c = ' ' || c = '\t' || c = '\r' then incr pos
    else if c = '/' && next_is 1 '/' then begin
      while !pos < n && src.[!pos] <> '\n' do
        incr pos
      done
    end
    else if c = '/' && next_is 1 '*' then begin
      pos := !pos + 2;
      let closed = ref false in
      while not !closed do
        if !pos >= n then error "unterminated comment"
        else if src.[!pos] = '\n' then begin
          incr line;
          incr pos
        end
        else if src.[!pos] = '*' && next_is 1 '/' then begin
          pos := !pos + 2;
          closed := true
        end
        else incr pos
      done
    end
    else if is_digit c then begin
      let start = !pos in
      if c = '0' && (next_is 1 'x' || next_is 1 'X') then begin
        pos := !pos + 2;
        while !pos < n && is_hex src.[!pos] do
          incr pos
        done;
        if !pos = start + 2 then
          error ("malformed integer literal " ^ literal start);
        int_literal start
      end
      else begin
        while !pos < n && is_digit src.[!pos] do
          incr pos
        done;
        let is_float =
          next_is 0 '.' && !pos + 1 < n && is_digit src.[!pos + 1]
        in
        if is_float then begin
          incr pos;
          while !pos < n && is_digit src.[!pos] do
            incr pos
          done;
          (* optional exponent *)
          if !pos < n && (src.[!pos] = 'e' || src.[!pos] = 'E') then begin
            incr pos;
            if !pos < n && (src.[!pos] = '+' || src.[!pos] = '-') then incr pos;
            while !pos < n && is_digit src.[!pos] do
              incr pos
            done
          end;
          let text = literal start in
          match float_of_string_opt text with
          | Some f -> emit (FLOAT f)
          | None -> error ("malformed float literal " ^ text)
        end
        else int_literal start
      end
    end
    else if is_ident_start c then begin
      let start = !pos in
      while !pos < n && is_ident src.[!pos] do
        incr pos
      done;
      let len = !pos - start in
      match
        List.find_opt
          (fun k -> String.length k = len && occurs_at start k)
          keywords_by_first.(Char.code c)
      with
      | Some k -> emit (KW k)
      | None -> emit (IDENT (String.sub src start len))
    end
    else begin
      match
        List.find_opt (occurs_at !pos) puncts_by_first.(Char.code c)
      with
      | Some p ->
        pos := !pos + String.length p;
        emit (PUNCT p)
      | None -> error (Printf.sprintf "unexpected character %C" c)
    end
  done;
  List.rev ({ tok = EOF; line = !line } :: !out)
